package server

// Streamed execution: the server ships encrypted batches mid-scan. Where
// Execute materializes a whole engine.Result before the first byte crosses
// the trust boundary, ExecuteStream pulls row batches from the engine's
// streaming pipeline and frames each one onto the wire as it is produced —
// the producer half of the paper's split execution turned into a pipeline
// (Figure 1's "send encrypted intermediate results to the client" without
// the wait). The stream the server pulls may itself be produced by
// Parallelism workers behind the engine's shard-order merger; nothing here
// changes, because the engine folds each worker's charges into the
// stream's statistics only as their batches are emitted — the Stats
// snapshot taken after a batch is framed remains single-writer and
// reflects exactly the work whose output has shipped. The simulated cost
// model charges accordingly: each batch leaves the server at the simulated
// time its share of scan I/O, per-row CPU, and crypto-UDF work completes,
// so TimeToFirstBatch is O(batch) for pipeline-eligible queries — now
// including streamed DISTINCT (seen-set emission) and grouped queries
// (batch-at-a-time group finalization after accumulation) — while
// ServerTime remains time-to-last-batch: for a drained stream, exactly
// the materialized Execute's charge at every parallelism level.

import (
	"context"
	"io"
	"time"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/value"
	"repro/internal/wire"
)

// StreamStats reports the timing and size of one streamed execution.
type StreamStats struct {
	// TimeToFirstBatch is the simulated server-side time at which the
	// first batch had been produced and framed — the earliest moment any
	// result data could leave the server. For a pipeline-eligible scan it
	// is far below ServerTime; for materialized-fallback shapes the first
	// batch only exists once the whole result does.
	TimeToFirstBatch time.Duration
	// ServerTime is time-to-last-batch: the simulated scan I/O + per-row
	// CPU + measured crypto-UDF time of the work performed (for a drained
	// stream, identical to Execute's ServerTime for the same query; for an
	// abandoned stream, only what was actually scanned). The charge is
	// serial: per-shard work sums, it never overlaps in the accounting.
	ServerTime time.Duration
	// FirstFrameBytes is the wire size of the header plus the first batch
	// frame (what must cross the link before the client can start
	// decrypting).
	FirstFrameBytes int64
	// WireBytes is the total framed size of the stream.
	WireBytes int64
	// Batches counts the batch frames written.
	Batches int64
	// Rows counts the result rows shipped.
	Rows int64
}

// ExecuteStream runs one RemoteSQL query and writes its result onto w as a
// framed batch stream (header, batches, end frame). It returns when the
// stream has been fully written, the consumer's writer fails (an abandoned
// pipe aborts the scan mid-way), or execution errors. The returned
// StreamStats is valid in all three cases and reflects the work actually
// performed.
func (s *Server) ExecuteStream(q *ast.Query, params map[string]value.Value, w io.Writer) (*StreamStats, error) {
	return s.ExecuteStreamCtx(context.Background(), q, params, w)
}

// ExecuteStreamCtx is ExecuteStream with per-query cancellation: ctx is
// checked between batches, so cancelling it aborts the scan at the next
// batch boundary (the engine's Close cancels and joins any sharded
// producers) and returns ctx's error with the stats of the work actually
// performed. The transport's session layer drives every query through
// this entry point, wiring the protocol's cancel frame to ctx.
func (s *Server) ExecuteStreamCtx(ctx context.Context, q *ast.Query, params map[string]value.Value, w io.Writer) (*StreamStats, error) {
	st := &StreamStats{}
	es, err := s.Engine.ExecuteStream(q, params)
	if err != nil {
		return st, err
	}
	defer es.Close()
	defer func() { st.ServerTime = s.simulatedTime(es.Stats()) }()
	bw, err := wire.NewBatchWriter(w, es.Cols())
	if err != nil {
		return st, err
	}
	defer func() { st.WireBytes = bw.BytesWritten() }()
	for {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		rows, err := es.Next()
		if err != nil {
			return st, err
		}
		if rows == nil {
			break
		}
		if err := bw.WriteBatch(rows); err != nil {
			return st, err
		}
		st.Batches++
		st.Rows += int64(len(rows))
		if st.Batches == 1 {
			st.TimeToFirstBatch = s.simulatedTime(es.Stats())
			st.FirstFrameBytes = bw.BytesWritten()
		}
	}
	if err := bw.Close(); err != nil {
		return st, err
	}
	if st.Batches == 0 {
		// Empty result: the end frame is the first thing that can ship.
		st.TimeToFirstBatch = s.simulatedTime(es.Stats())
		st.FirstFrameBytes = bw.BytesWritten()
	}
	return st, nil
}

// simulatedTime converts engine statistics into the simulated server time
// of the cost model: scan I/O + per-row CPU + measured crypto-UDF time —
// the same formula Execute charges, applied to a mid-stream snapshot.
func (s *Server) simulatedTime(stats engine.Stats) time.Duration {
	return s.Cfg.ScanTime(stats.BytesScanned+stats.ExtraBytes) +
		s.Cfg.RowTime(stats.RowsScanned) +
		time.Duration(stats.UDFNanos)
}
