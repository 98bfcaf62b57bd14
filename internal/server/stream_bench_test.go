package server

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/value"
	"repro/internal/wire"
)

// Peak-heap benchmarks for the wire protocols: the materialized wire holds
// the whole engine.Result and its framed encoding alongside the consumer's
// decoded output; the streamed wire frames and drops one batch at a time
// (and the engine releases emitted rows), so peak memory tracks the batch
// size, not the result size. Run with -bench StreamedWirePeakHeap; the
// peakMB metric is the high-water HeapAlloc delta over the run.

// consume is the benchmark's stand-in for client-side decode work: touch
// every value, decoding GROUP_CONCAT blobs like the client would.
func consume(b *testing.B, rows [][]value.Value) int64 {
	var n int64
	for _, row := range rows {
		for _, v := range row {
			if v.K == value.Bytes {
				vals, err := wire.DecodeAll(v.B)
				if err != nil {
					b.Fatal(err)
				}
				n += int64(len(vals))
			} else {
				n += v.I
			}
		}
	}
	return n
}

// heapSampler tracks the high-water HeapAlloc over a run.
type heapSampler struct {
	base uint64
	peak uint64
}

func newHeapSampler() *heapSampler {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &heapSampler{base: m.HeapAlloc}
}

func (h *heapSampler) sample() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > h.peak {
		h.peak = m.HeapAlloc
	}
}

func (h *heapSampler) deltaMB() float64 {
	if h.peak < h.base {
		return 0
	}
	return float64(h.peak-h.base) / 1e6
}

func benchWirePeakHeap(b *testing.B, sql string, streamed bool) {
	const rows = 200000
	srv := bigFixture(b, rows, 97)
	q := sqlparser.MustParse(sql)
	var peakMB float64
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := newHeapSampler()
		if streamed {
			pr, pw := io.Pipe()
			errc := make(chan error, 1)
			go func() {
				_, err := srv.ExecuteStream(q, nil, pw)
				pw.CloseWithError(err)
				errc <- err
			}()
			br, err := wire.NewBatchReader(pr)
			if err != nil {
				b.Fatal(err)
			}
			for {
				batch, err := br.Next()
				if err != nil {
					b.Fatal(err)
				}
				if batch == nil {
					break
				}
				sink += consume(b, batch)
				h.sample()
			}
			if err := <-errc; err != nil {
				b.Fatal(err)
			}
		} else {
			resp, err := srv.Execute(q, nil)
			if err != nil {
				b.Fatal(err)
			}
			// The materialized wire frames the whole result before any of
			// it ships; the Result stays alive until the client has decoded
			// the last byte.
			var buf bytes.Buffer
			bw, err := wire.NewBatchWriter(&buf, resp.Result.Cols)
			if err != nil {
				b.Fatal(err)
			}
			if err := bw.WriteBatch(resp.Result.Rows); err != nil {
				b.Fatal(err)
			}
			if err := bw.Close(); err != nil {
				b.Fatal(err)
			}
			h.sample()
			br, err := wire.NewBatchReader(&buf)
			if err != nil {
				b.Fatal(err)
			}
			for {
				batch, err := br.Next()
				if err != nil {
					b.Fatal(err)
				}
				if batch == nil {
					break
				}
				sink += consume(b, batch)
				h.sample()
			}
			runtime.KeepAlive(resp)
		}
		peakMB = h.deltaMB()
	}
	if sink == 0 {
		b.Log("empty result")
	}
	b.ReportMetric(peakMB, "peakMB")
}

// BenchmarkStreamedWirePeakHeap200k compares peak heap while shipping a
// 200k-row result: the GROUP_CONCAT shape (every row carries a framed
// ciphertext blob — the paper's GROUP() operator) and the plain projection
// shape, over both wires.
func BenchmarkStreamedWirePeakHeap200k(b *testing.B) {
	shapes := []struct {
		name string
		sql  string
	}{
		{"group_concat", `SELECT a_det, group_concat(b_det) FROM big GROUP BY a_det`},
		{"projection", `SELECT a_det, b_det FROM big`},
	}
	for _, sh := range shapes {
		for _, mode := range []struct {
			name     string
			streamed bool
		}{{"materialized", false}, {"streamed", true}} {
			b.Run(fmt.Sprintf("%s/%s", sh.name, mode.name), func(b *testing.B) {
				benchWirePeakHeap(b, sh.sql, mode.streamed)
			})
		}
	}
}
