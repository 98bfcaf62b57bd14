package engine

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Streaming-execution equivalence and edge cases: every streamable query
// shape must produce results byte-identical to the materialized path at
// every batch size and parallelism level; LIMIT early exit must cut the
// scan short without leaking worker goroutines; and a streamed pipeline
// that falls back to a materialized operator mid-query must charge the
// scan exactly once.

// streamQueries covers the fully streamed pipeline (projection, filter,
// LIMIT early exit, grouped aggregation incl. DISTINCT aggregates, UDF
// aggregates, HAVING, star counts, SELECT *), the partial-stream fallback
// (ORDER BY, DISTINCT), and shapes that must fall back entirely (joins,
// subqueries) yet still agree.
var streamQueries = []string{
	`SELECT f_id, f_val FROM facts`,
	`SELECT * FROM facts WHERE f_val > 500`,
	`SELECT f_id, f_val * 2 + 1 FROM facts WHERE f_val < 900`,
	`SELECT f_id FROM facts WHERE f_val > 500 LIMIT 17`,
	`SELECT f_id FROM facts LIMIT 0`,
	`SELECT f_tag FROM facts WHERE f_val BETWEEN 100 AND 101`,
	`SELECT f_dim, SUM(f_val), COUNT(*), AVG(f_val), MIN(f_val), MAX(f_val)
	   FROM facts GROUP BY f_dim ORDER BY f_dim`,
	`SELECT COUNT(DISTINCT f_val), SUM(DISTINCT f_val) FROM facts`,
	`SELECT f_tag, COUNT(DISTINCT f_dim) FROM facts WHERE f_id < 700 GROUP BY f_tag ORDER BY f_tag`,
	`SELECT SUM(f_val), COUNT(*) FROM facts WHERE f_id < 700`,
	`SELECT SUM(f_val) FROM facts WHERE f_val > 100000`,
	`SELECT f_dim, SUM(f_val) s FROM facts GROUP BY f_dim HAVING s > 3000 ORDER BY s DESC, f_dim`,
	`SELECT f_dim, my_sum(f_val) FROM facts GROUP BY f_dim ORDER BY f_dim`,
	`SELECT f_id, f_val FROM facts WHERE f_val < 900 ORDER BY f_val DESC, f_id LIMIT 37`,
	`SELECT DISTINCT f_tag FROM facts`,
	`SELECT DISTINCT f_tag FROM facts ORDER BY f_tag`,
	`SELECT d_name, SUM(f_val) FROM facts, dims
	   WHERE f_dim = d_id AND f_val > 250 GROUP BY d_name ORDER BY d_name`,
	`SELECT f_dim FROM facts WHERE f_val = (SELECT MAX(f_val) FROM facts)`,
}

func TestStreamedMatchesMaterialized(t *testing.T) {
	e := parallelFixture(t, 2000)
	registerMySum(e)
	for _, sql := range streamQueries {
		q := sqlparser.MustParse(sql)
		e.Parallelism, e.BatchSize = 1, 0
		want, seqErr := e.Execute(q, nil)
		for _, bs := range []int{1, 7, 64, DefaultBatchSize} {
			for _, p := range []int{1, 2, 4} {
				e.Parallelism, e.BatchSize = p, bs
				res, err := e.Execute(q, nil)
				if (err == nil) != (seqErr == nil) {
					t.Fatalf("bs=%d p=%d err=%v, materialized err=%v\n%s", bs, p, err, seqErr, sql)
				}
				if err != nil {
					continue
				}
				if got, wantS := renderResult(t, res), renderResult(t, want); got != wantS {
					t.Errorf("bs=%d p=%d diverges on %s\ngot:\n%s\nwant:\n%s", bs, p, sql, got, wantS)
				}
			}
		}
	}
}

// TestStreamedFullScanStats pins the cost-model inputs: a streamed full
// scan must charge exactly the same bytes and rows as the materialized
// scan, at every batch size and shard count (the per-batch byte charges
// telescope to the table total).
func TestStreamedFullScanStats(t *testing.T) {
	e := parallelFixture(t, 2000)
	q := sqlparser.MustParse(`SELECT f_dim, SUM(f_val) FROM facts WHERE f_val > 250 GROUP BY f_dim`)
	e.Parallelism, e.BatchSize = 1, 0
	want, err := e.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 3, 64, 1024, 5000} {
		for _, p := range []int{1, 2, 4} {
			e.Parallelism, e.BatchSize = p, bs
			res, err := e.Execute(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.BytesScanned != want.Stats.BytesScanned ||
				res.Stats.RowsScanned != want.Stats.RowsScanned ||
				res.Stats.RowsOut != want.Stats.RowsOut {
				t.Errorf("bs=%d p=%d stats diverge: %+v vs %+v", bs, p, res.Stats, want.Stats)
			}
			if res.Stats.BatchesStreamed == 0 {
				t.Errorf("bs=%d p=%d BatchesStreamed = 0", bs, p)
			}
		}
	}
}

// TestStreamFallbackNoDoubleCount is the regression test for scan
// accounting when a streamed pipeline falls back to a materialized
// operator mid-query (ORDER BY / DISTINCT): the scan is charged by the
// streaming front exactly once, never re-charged by the materialized
// rest.
func TestStreamFallbackNoDoubleCount(t *testing.T) {
	const rows = 500
	e := parallelFixture(t, rows)
	tbl, err := e.Cat.Table("facts")
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`SELECT f_id FROM facts WHERE f_val > 100 ORDER BY f_id`,
		`SELECT DISTINCT f_tag FROM facts`,
		`SELECT f_tag, COUNT(*) FROM facts GROUP BY f_tag ORDER BY f_tag`,
	} {
		q := sqlparser.MustParse(sql)
		for _, p := range []int{1, 4} {
			e.Parallelism, e.BatchSize = p, 64
			res, err := e.Execute(q, nil)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if res.Stats.RowsScanned != rows {
				t.Errorf("p=%d %s: RowsScanned = %d, want exactly %d (double count?)",
					p, sql, res.Stats.RowsScanned, rows)
			}
			if res.Stats.BytesScanned != tbl.Bytes {
				t.Errorf("p=%d %s: BytesScanned = %d, want exactly %d",
					p, sql, res.Stats.BytesScanned, tbl.Bytes)
			}
			if res.Stats.RowsOut != int64(len(res.Rows)) {
				t.Errorf("p=%d %s: RowsOut = %d, result has %d rows",
					p, sql, res.Stats.RowsOut, len(res.Rows))
			}
		}
	}
}

// TestStreamEmptyTable covers the zero-row edge: empty scans, empty
// grouped output, and the aggregates-without-GROUP-BY single NULL/0 row.
func TestStreamEmptyTable(t *testing.T) {
	cat := storage.NewCatalog()
	if _, err := cat.Create(storage.Schema{
		Name: "void",
		Cols: []storage.Column{
			{Name: "v_id", Type: storage.TInt},
			{Name: "v_val", Type: storage.TInt},
		},
	}); err != nil {
		t.Fatal(err)
	}
	e := New(cat)
	for _, tc := range []struct {
		sql  string
		rows int
	}{
		{`SELECT v_id FROM void`, 0},
		{`SELECT v_id FROM void WHERE v_val > 10`, 0},
		{`SELECT v_id, v_val FROM void LIMIT 5`, 0},
		{`SELECT v_val, COUNT(*) FROM void GROUP BY v_val`, 0},
		{`SELECT SUM(v_val), COUNT(*) FROM void`, 1}, // NULL, 0
	} {
		q := sqlparser.MustParse(tc.sql)
		for _, bs := range []int{0, 1, 8} {
			for _, p := range []int{1, 4} {
				e.Parallelism, e.BatchSize = p, bs
				res, err := e.Execute(q, nil)
				if err != nil {
					t.Fatalf("bs=%d p=%d %s: %v", bs, p, tc.sql, err)
				}
				if len(res.Rows) != tc.rows {
					t.Errorf("bs=%d p=%d %s: %d rows, want %d", bs, p, tc.sql, len(res.Rows), tc.rows)
				}
			}
		}
	}
}

// TestStreamBatchBoundaryFilters aims predicates exactly at batch
// boundaries: selections starting/ending on a boundary, straddling one,
// and emptying entire batches must all agree with the materialized path.
func TestStreamBatchBoundaryFilters(t *testing.T) {
	e := parallelFixture(t, 200)
	const bs = 16
	for _, sql := range []string{
		`SELECT f_id FROM facts WHERE f_id BETWEEN 16 AND 31`,  // exactly batch 2
		`SELECT f_id FROM facts WHERE f_id BETWEEN 15 AND 16`,  // straddles 1|2
		`SELECT f_id FROM facts WHERE f_id BETWEEN 30 AND 33`,  // straddles 2|3
		`SELECT f_id FROM facts WHERE f_id >= 192`,             // final short batch
		`SELECT f_id FROM facts WHERE f_id < 0`,                // every batch empties
		`SELECT f_id FROM facts WHERE f_id = 48 OR f_id = 175`, // sparse survivors
		`SELECT SUM(f_val) FROM facts WHERE f_id BETWEEN 47 AND 48`,
	} {
		q := sqlparser.MustParse(sql)
		e.Parallelism, e.BatchSize = 1, 0
		want, err := e.Execute(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4} {
			e.Parallelism, e.BatchSize = p, bs
			res, err := e.Execute(q, nil)
			if err != nil {
				t.Fatalf("p=%d %s: %v", p, sql, err)
			}
			if got, wantS := renderResult(t, res), renderResult(t, want); got != wantS {
				t.Errorf("p=%d %s diverges\ngot:\n%s\nwant:\n%s", p, sql, got, wantS)
			}
		}
	}
}

// TestStreamLimitEarlyExit checks that LIMIT without ORDER BY stops the
// pipeline partway through the table: the streamed scan must charge fewer
// rows/bytes than a full materialized scan.
func TestStreamLimitEarlyExit(t *testing.T) {
	const rows = 10000
	e := parallelFixture(t, rows)
	q := sqlparser.MustParse(`SELECT f_id FROM facts LIMIT 5`)

	e.Parallelism, e.BatchSize = 1, 32
	res, err := e.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("LIMIT 5 returned %d rows", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row[0].AsInt() != int64(i) {
			t.Fatalf("row %d = %v, want %d (row order broken)", i, row[0], i)
		}
	}
	// One batch satisfies the limit; a second pull never happens.
	if res.Stats.RowsScanned != 32 {
		t.Errorf("sequential early exit scanned %d rows, want 32", res.Stats.RowsScanned)
	}
	tbl, _ := e.Cat.Table("facts")
	if res.Stats.BytesScanned >= tbl.Bytes {
		t.Errorf("early exit charged a full scan: %d bytes", res.Stats.BytesScanned)
	}

	// A limit forces the sequential drain even at p=4 (only the global
	// prefix matters), so the scan work and charged stats are identical
	// to the sequential run.
	e.Parallelism = 4
	res, err = e.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || res.Rows[4][0].AsInt() != 4 {
		t.Fatalf("p=4 LIMIT 5 returned wrong rows: %v", res.Rows)
	}
	if res.Stats.RowsScanned != 32 {
		t.Errorf("p=4 early exit scanned %d rows, want 32 (same as sequential)", res.Stats.RowsScanned)
	}
}

// TestStreamLimitNoGoroutineLeak asserts streamed pipelines join all
// their workers before Execute returns: repeated early-exiting LIMIT
// queries interleaved with sharded streamed scans must not grow the
// process's goroutine count (run with -race to also catch unsynchronized
// stragglers).
func TestStreamLimitNoGoroutineLeak(t *testing.T) {
	e := parallelFixture(t, 5000)
	e.Parallelism, e.BatchSize = 4, 8
	queries := []string{
		`SELECT f_id FROM facts LIMIT 3`,
		`SELECT f_id FROM facts WHERE f_val > 500 LIMIT 9`,
		`SELECT f_id FROM facts LIMIT 0`,
		`SELECT f_dim, SUM(f_val) FROM facts GROUP BY f_dim`, // sharded workers
		`SELECT f_id FROM facts WHERE f_val > 900`,           // sharded workers
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		for _, sql := range queries {
			if _, err := e.Execute(sqlparser.MustParse(sql), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Give any (buggy) stragglers a moment to show up, then compare.
	var after int
	for i := 0; i < 20; i++ {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after > before+2 {
		t.Fatalf("goroutines grew from %d to %d: early exit leaks workers", before, after)
	}
}

// TestStreamParamsAndScalarUDF checks parameter binding and scalar UDFs
// evaluate identically inside the streamed pipeline.
func TestStreamParamsAndScalarUDF(t *testing.T) {
	e := parallelFixture(t, 300)
	e.RegisterScalar("twice", func(st *Stats, args []value.Value) (value.Value, error) {
		return value.Add(args[0], args[0]), nil
	})
	q := sqlparser.MustParse(`SELECT f_id, twice(f_val) FROM facts WHERE f_val > :cut`)
	params := map[string]value.Value{"cut": value.NewInt(800)}
	e.Parallelism, e.BatchSize = 1, 0
	want, err := e.Execute(q, params)
	if err != nil {
		t.Fatal(err)
	}
	e.Parallelism, e.BatchSize = 4, 32
	got, err := e.Execute(q, params)
	if err != nil {
		t.Fatal(err)
	}
	if renderResult(t, got) != renderResult(t, want) {
		t.Errorf("streamed params/UDF result diverges")
	}
}
