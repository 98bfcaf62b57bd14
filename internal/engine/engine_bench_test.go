package engine

import (
	"fmt"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Micro-benchmarks for the executor substrate: scan+filter, hash join, and
// grouped aggregation throughput at a fixed row count.

func benchEngine(b *testing.B, rows int) *Engine {
	b.Helper()
	cat := storage.NewCatalog()
	t, err := cat.Create(storage.Schema{
		Name: "facts",
		Cols: []storage.Column{
			{Name: "f_id", Type: storage.TInt},
			{Name: "f_dim", Type: storage.TInt},
			{Name: "f_val", Type: storage.TInt},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	d, err := cat.Create(storage.Schema{
		Name: "dims",
		Cols: []storage.Column{
			{Name: "d_id", Type: storage.TInt},
			{Name: "d_name", Type: storage.TStr},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		t.MustInsert([]value.Value{
			value.NewInt(int64(i)), value.NewInt(int64(i % 100)), value.NewInt(int64(i % 1000)),
		})
	}
	for i := 0; i < 100; i++ {
		d.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewStr(fmt.Sprintf("dim-%02d", i))})
	}
	return New(cat)
}

func runBench(b *testing.B, sql string, rows int) {
	e := benchEngine(b, rows)
	q := sqlparser.MustParse(sql)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanFilter10k(b *testing.B) {
	runBench(b, `SELECT f_id FROM facts WHERE f_val > 500`, 10000)
}

func BenchmarkHashJoin10k(b *testing.B) {
	runBench(b, `SELECT COUNT(*) FROM facts, dims WHERE f_dim = d_id`, 10000)
}

func BenchmarkGroupedAggregate10k(b *testing.B) {
	runBench(b, `SELECT f_dim, SUM(f_val), COUNT(*) FROM facts GROUP BY f_dim`, 10000)
}

func BenchmarkDecorrelatedExists10k(b *testing.B) {
	runBench(b, `SELECT COUNT(*) FROM dims WHERE EXISTS (
		SELECT 1 FROM facts WHERE f_dim = d_id AND f_val > 900)`, 10000)
}

// Morsel-execution benchmarks: the same queries at GOMAXPROCS 1 (one
// worker) and at increasing worker counts. On a multi-core host the p>1
// variants show the multi-core speedup of the morsel scan, filter, probe,
// and grouped-aggregation loops; on a single core they bound the worker
// overhead.

func benchParallelLevels(b *testing.B, sql string, rows int) {
	b.Helper()
	e := benchEngine(b, rows)
	q := sqlparser.MustParse(sql)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			procs(b, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Execute(q, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupedAggregate200k is TPC-H-Q1-shaped grouped aggregation
// (few groups, several aggregates per row) over 200k rows — the paper's
// server-side hot path and the headline case for morsel execution.
func BenchmarkGroupedAggregate200k(b *testing.B) {
	benchParallelLevels(b,
		`SELECT f_dim, SUM(f_val), COUNT(*), AVG(f_val), MIN(f_val), MAX(f_val)
		   FROM facts GROUP BY f_dim`, 200000)
}

func BenchmarkScanFilter200k(b *testing.B) {
	benchParallelLevels(b, `SELECT f_id FROM facts WHERE f_val > 500`, 200000)
}

func BenchmarkHashJoinProbe200k(b *testing.B) {
	benchParallelLevels(b, `SELECT COUNT(*) FROM facts, dims WHERE f_dim = d_id AND f_val > 250`, 200000)
}

// Streamed-vs-materialized benchmarks: the same scan-shaped queries with
// the batch-at-a-time pipeline off (materialized intermediates) and on
// (batchSize = DefaultBatchSize), at one and several workers.
// Streaming wins by skipping the materialized filter output and, for
// LIMIT, by stopping the scan early; results are byte-identical either
// way (see stream_test.go).

func benchStreamLevels(b *testing.B, sql string, rows int) {
	b.Helper()
	e := benchEngine(b, rows)
	q := sqlparser.MustParse(sql)
	for _, mode := range []struct {
		name  string
		batch int
	}{{"materialized", 0}, {"streamed", DefaultBatchSize}} {
		for _, p := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/p=%d", mode.name, p), func(b *testing.B) {
				procs(b, p)
				e.batchSize = mode.batch
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Execute(q, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkStreamScanFilter200k is the selective-scan hot path: the
// materialized engine allocates the filtered intermediate, the streamed
// engine pipelines it away.
func BenchmarkStreamScanFilter200k(b *testing.B) {
	benchStreamLevels(b, `SELECT f_id FROM facts WHERE f_val > 500`, 200000)
}

// BenchmarkStreamGroupedAggregate200k feeds grouped aggregation from the
// scan→filter stream (per-batch AggState updates) instead of a
// materialized filter output.
func BenchmarkStreamGroupedAggregate200k(b *testing.B) {
	benchStreamLevels(b,
		`SELECT f_dim, SUM(f_val), COUNT(*), AVG(f_val), MIN(f_val), MAX(f_val)
		   FROM facts WHERE f_val > 250 GROUP BY f_dim`, 200000)
}

// BenchmarkStreamLimit200k shows LIMIT early exit: the streamed pipeline
// stops after a few batches where the materialized scan reads all 200k
// rows.
func BenchmarkStreamLimit200k(b *testing.B) {
	benchStreamLevels(b, `SELECT f_id, f_val FROM facts WHERE f_val > 500 LIMIT 100`, 200000)
}

// Join-layer benchmarks: the partitioned hash-join build (200k-row
// build side) and the streamed probe (200k-row probe side) against their
// sequential / materialized baselines.

// benchJoinEngine builds probe(p_id, p_key, p_val) × build(b_key, b_val)
// with ~one build row per 100 probe keys matching.
func benchJoinEngine(b *testing.B, probeRows, buildRows int) *Engine {
	b.Helper()
	cat := storage.NewCatalog()
	pt, err := cat.Create(storage.Schema{
		Name: "probe",
		Cols: []storage.Column{
			{Name: "p_id", Type: storage.TInt},
			{Name: "p_key", Type: storage.TInt},
			{Name: "p_val", Type: storage.TInt},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < probeRows; i++ {
		pt.MustInsert([]value.Value{
			value.NewInt(int64(i)), value.NewInt(int64(i % buildRows)), value.NewInt(int64(i % 1000)),
		})
	}
	bt, err := cat.Create(storage.Schema{
		Name: "build",
		Cols: []storage.Column{
			{Name: "b_key", Type: storage.TInt},
			{Name: "b_val", Type: storage.TInt},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < buildRows; i++ {
		bt.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 97))})
	}
	return New(cat)
}

// BenchmarkJoinBuild200k stresses the build phase: a 200k-row build side
// hashed into partitioned maps (p>1) vs one sequential map (p=1); the
// 2k-row probe side keeps the probe phase negligible.
func BenchmarkJoinBuild200k(b *testing.B) {
	e := benchJoinEngine(b, 2000, 200000)
	q := sqlparser.MustParse(`SELECT COUNT(*) FROM probe, build WHERE p_key = b_key`)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			procs(b, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Execute(q, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamJoinProbe200k is the streamed-probe headline: a 200k-row
// probe side over a 100-row build side, materialized (the full join output
// exists) vs streamed (each probe batch flows through probe → project and
// is released). Grouped variant folds the joined batches straight into
// aggregation states.
func BenchmarkStreamJoinProbe200k(b *testing.B) {
	for _, sh := range []struct {
		name string
		sql  string
	}{
		{"projection", `SELECT p_id, b_val FROM probe, build WHERE p_key = b_key AND p_val > 250`},
		{"grouped", `SELECT b_val, SUM(p_val), COUNT(*) FROM probe, build WHERE p_key = b_key GROUP BY b_val`},
	} {
		e := benchJoinEngine(b, 200000, 100)
		q := sqlparser.MustParse(sh.sql)
		for _, mode := range []struct {
			name  string
			batch int
		}{{"materialized", 0}, {"streamed", DefaultBatchSize}} {
			b.Run(fmt.Sprintf("%s/%s", sh.name, mode.name), func(b *testing.B) {
				procs(b, 1)
				e.batchSize = mode.batch
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Execute(q, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
