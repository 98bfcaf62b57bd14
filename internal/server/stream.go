package server

// Streamed execution: the server ships encrypted batches mid-scan. Where
// Execute materializes a whole engine.Result before the first byte crosses
// the trust boundary, ExecuteStream pulls row batches from the engine's
// streaming pipeline and frames each one onto the wire as it is produced —
// the producer half of the paper's split execution turned into a pipeline
// (Figure 1's "send encrypted intermediate results to the client" without
// the wait). The stream the server pulls may itself be produced by
// GOMAXPROCS workers behind the engine's morsel-order merger; nothing here
// changes, because the engine folds each worker's counters into the
// stream's statistics only as their batches are emitted — the Stats
// snapshot taken after a batch is framed remains single-writer and counts
// exactly the work whose output has shipped. Pipelining shows in those
// counts: a scan, join or streamed DISTINCT ships its first batch while
// RowsScanned is still below the table's size, and a grouped query, which
// must scan everything first, finalizes and ships its groups a batch at a
// time. A drained stream's Stats equal the materialized Execute's on every
// counter but BatchesStreamed: the stream pulls 1 024-row batches, Execute
// one batch per morsel.

import (
	"context"
	"io"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/value"
	"repro/internal/wire"
)

// StreamStats reports the work and size of one streamed execution.
type StreamStats struct {
	// Stats counts the work performed: for a drained stream, identical to
	// Execute's Result.Stats for the same query (crypto-UDF wall and
	// BatchesStreamed aside); for an abandoned stream, only what was
	// actually scanned.
	Stats engine.Stats
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
	// Close first: it folds in the work shard workers did after the last
	// batch this loop pulled, which a stream stopped early has not seen.
	defer func() {
		es.Close()
		st.Stats = es.Stats()
	}()
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
	}
	return st, bw.Close()
}
