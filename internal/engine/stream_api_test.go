package engine

import (
	"fmt"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/value"
)

// Public streaming API equivalence: draining ExecuteStream must yield the
// same columns and rows, in the same order, as Execute — for pipelined
// shapes and for every materialized-fallback shape — and the pipelined
// path must deliver its first batch before the scan has been fully
// charged.

// drainStream collects a ResultStream into a Result-shaped value.
func drainStream(t testing.TB, s *ResultStream) *Result {
	t.Helper()
	res := &Result{Cols: s.Cols()}
	for {
		b, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		res.Rows = append(res.Rows, b...)
	}
	res.Stats = s.Stats()
	return res
}

func TestExecuteStreamMatchesExecute(t *testing.T) {
	e := parallelFixture(t, 2000)
	registerMySum(e)
	for _, sql := range streamQueries {
		q := sqlparser.MustParse(sql)
		e.Parallelism, e.BatchSize = 1, 0
		want, seqErr := e.Execute(q, nil)
		for _, bs := range []int{0, 7, 64} {
			for _, p := range []int{1, 4} {
				e.Parallelism, e.BatchSize = p, bs
				s, err := e.ExecuteStream(q, nil)
				if err != nil {
					if seqErr == nil {
						t.Fatalf("bs=%d p=%d stream err %v on %s", bs, p, err, sql)
					}
					continue
				}
				got := drainStream(t, s)
				if seqErr != nil {
					t.Fatalf("bs=%d p=%d stream succeeded where Execute fails on %s", bs, p, sql)
				}
				if g, w := renderResult(t, got), renderResult(t, want); g != w {
					t.Errorf("bs=%d p=%d stream diverges on %s\ngot:\n%s\nwant:\n%s", bs, p, sql, g, w)
				}
				if got.Stats.RowsOut != int64(len(got.Rows)) {
					t.Errorf("bs=%d p=%d %s: stream RowsOut = %d, emitted %d",
						bs, p, sql, got.Stats.RowsOut, len(got.Rows))
				}
			}
		}
	}
}

// TestExecuteStreamIncremental pins the pipelined mode's defining
// property: scan statistics grow batch by batch, so the first batch is
// available when only a prefix of the table has been charged — the
// engine-side half of time-to-first-batch < time-to-last-batch.
func TestExecuteStreamIncremental(t *testing.T) {
	e := parallelFixture(t, 5000)
	e.Parallelism, e.BatchSize = 1, 64
	s, err := e.ExecuteStream(sqlparser.MustParse(`SELECT f_id, f_val FROM facts`), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Next()
	if err != nil || len(b) != 64 {
		t.Fatalf("first batch: %d rows, err %v", len(b), err)
	}
	mid := s.Stats()
	if mid.RowsScanned != 64 {
		t.Fatalf("after one batch RowsScanned = %d, want 64", mid.RowsScanned)
	}
	tbl, _ := e.Cat.Table("facts")
	if mid.BytesScanned >= tbl.Bytes {
		t.Fatalf("first batch charged the whole table: %d of %d bytes", mid.BytesScanned, tbl.Bytes)
	}
	rest := drainStream(t, s)
	final := s.Stats()
	if final.RowsScanned != 5000 || final.BytesScanned != tbl.Bytes {
		t.Errorf("drained stats = %+v, want full scan", final)
	}
	if len(rest.Rows)+64 != 5000 {
		t.Errorf("stream delivered %d rows total", len(rest.Rows)+64)
	}
}

// TestExecuteStreamEarlyClose abandons a pipelined stream after one batch:
// the scan must stop (partial charges only) and, since the pull chain owns
// no goroutines, nothing can leak.
func TestExecuteStreamEarlyClose(t *testing.T) {
	e := parallelFixture(t, 10000)
	e.Parallelism, e.BatchSize = 4, 32
	s, err := e.ExecuteStream(sqlparser.MustParse(`SELECT f_id FROM facts WHERE f_val >= 0`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	st := s.Stats()
	if st.RowsScanned >= 10000 {
		t.Errorf("abandoned stream scanned all %d rows", st.RowsScanned)
	}
	// Next after Close stays nil without error.
	if b, err := s.Next(); b != nil || err != nil {
		t.Errorf("post-Close Next = (%v, %v)", b, err)
	}
}

// TestExecuteStreamLimit checks the pipelined LIMIT countdown: exact
// delivery, early scan exit, and LIMIT 0.
func TestExecuteStreamLimit(t *testing.T) {
	e := parallelFixture(t, 10000)
	e.Parallelism, e.BatchSize = 1, 32
	s, err := e.ExecuteStream(sqlparser.MustParse(`SELECT f_id FROM facts LIMIT 5`), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, s)
	if len(got.Rows) != 5 || got.Rows[4][0].AsInt() != 4 {
		t.Fatalf("LIMIT 5 stream = %v", got.Rows)
	}
	if got.Stats.RowsScanned != 32 {
		t.Errorf("LIMIT 5 scanned %d rows, want one batch (32)", got.Stats.RowsScanned)
	}
	s, err = e.ExecuteStream(sqlparser.MustParse(`SELECT f_id FROM facts LIMIT 0`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := drainStream(t, s); len(got.Rows) != 0 {
		t.Fatalf("LIMIT 0 delivered %d rows", len(got.Rows))
	}
}

// Streamed top-N: ORDER BY ... LIMIT under streaming must agree with the
// materialized sort at every batch size and shard count — including
// heavily tied keys, where the global-position tiebreak must reproduce the
// stable sort's input order exactly.
func TestStreamTopNMatchesMaterialized(t *testing.T) {
	e := parallelFixture(t, 2000)
	queries := []string{
		// f_tag has only four distinct values over 2000 rows: ties dominate.
		`SELECT f_tag, f_id FROM facts ORDER BY f_tag LIMIT 13`,
		`SELECT f_id, f_val FROM facts WHERE f_val > 200 ORDER BY f_val DESC, f_id LIMIT 37`,
		`SELECT f_id, f_val * 2 AS dbl FROM facts ORDER BY dbl DESC LIMIT 5`,
		`SELECT f_id FROM facts ORDER BY f_val LIMIT 0`,
		`SELECT f_id FROM facts WHERE f_val > 990 ORDER BY f_id LIMIT 5000`, // k > survivors
		`SELECT f_tag, f_dim, f_id FROM facts ORDER BY f_tag DESC, f_dim, f_id DESC LIMIT 29`,
		`SELECT f_id FROM facts WHERE f_val < 0 ORDER BY f_id LIMIT 10`, // empty input
	}
	for _, sql := range queries {
		q := sqlparser.MustParse(sql)
		e.Parallelism, e.BatchSize = 1, 0
		want, err := e.Execute(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range []int{1, 16, 256} {
			for _, p := range []int{1, 2, 4} {
				e.Parallelism, e.BatchSize = p, bs
				got, err := e.Execute(q, nil)
				if err != nil {
					t.Fatalf("bs=%d p=%d %s: %v", bs, p, sql, err)
				}
				if g, w := renderResult(t, got), renderResult(t, want); g != w {
					t.Errorf("bs=%d p=%d top-N diverges on %s\ngot:\n%s\nwant:\n%s", bs, p, sql, g, w)
				}
			}
		}
	}
}

// TestStreamTopNStats: the bounded heap must still charge a full scan
// (sorting needs every row), identically at every batch size and shard
// count.
func TestStreamTopNStats(t *testing.T) {
	const rows = 2000
	e := parallelFixture(t, rows)
	tbl, _ := e.Cat.Table("facts")
	q := sqlparser.MustParse(`SELECT f_id FROM facts ORDER BY f_val LIMIT 7`)
	for _, bs := range []int{8, 512} {
		for _, p := range []int{1, 4} {
			e.Parallelism, e.BatchSize = p, bs
			res, err := e.Execute(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.RowsScanned != rows || res.Stats.BytesScanned != tbl.Bytes {
				t.Errorf("bs=%d p=%d top-N scan stats %+v, want full table", bs, p, res.Stats)
			}
			if res.Stats.RowsOut != 7 {
				t.Errorf("bs=%d p=%d RowsOut = %d", bs, p, res.Stats.RowsOut)
			}
		}
	}
}

// Parallel per-group finalization: a UDF-heavy grouped query must produce
// identical rows whether group Result calls run sequentially or fanned
// across workers (the Paillier-per-group ROADMAP item; raced in CI).
func TestParallelGroupFinalization(t *testing.T) {
	e := parallelFixture(t, 3000)
	registerMySum(e)
	// ~100 distinct f_dim groups: enough for every worker to own a range.
	q := sqlparser.MustParse(
		`SELECT f_dim, my_sum(f_val), COUNT(*) FROM facts GROUP BY f_dim ORDER BY f_dim`)
	e.Parallelism, e.BatchSize = 1, 0
	want, err := e.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 16} {
		for _, bs := range []int{0, 64} {
			e.Parallelism, e.BatchSize = p, bs
			got, err := e.Execute(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := renderResult(t, got), renderResult(t, want); g != w {
				t.Errorf("p=%d bs=%d parallel finalization diverges\ngot:\n%s\nwant:\n%s", p, bs, g, w)
			}
		}
	}
}

// TestParallelGroupFinalizationError: a Result error must surface in group
// order, exactly as the sequential loop reports it.
func TestParallelGroupFinalizationError(t *testing.T) {
	e := parallelFixture(t, 1000)
	e.RegisterAgg("bad_result", func(st *Stats) AggState { return &badResultUDF{} })
	q := sqlparser.MustParse(`SELECT f_dim, bad_result(f_val) FROM facts GROUP BY f_dim`)
	e.Parallelism = 1
	_, seqErr := e.Execute(q, nil)
	if seqErr == nil {
		t.Fatal("expected sequential error")
	}
	e.Parallelism = 8
	_, parErr := e.Execute(q, nil)
	if parErr == nil || parErr.Error() != seqErr.Error() {
		t.Fatalf("parallel err %v, sequential err %v", parErr, seqErr)
	}
}

// badResultUDF fails at finalization time (unlike badUDF, which fails on
// Add), exercising the parallel Result fan-out's error path.
type badResultUDF struct{ n int64 }

func (b *badResultUDF) Add(args []value.Value) error { b.n++; return nil }
func (b *badResultUDF) Merge(other AggState) error {
	b.n += other.(*badResultUDF).n
	return nil
}
func (b *badResultUDF) Result() (value.Value, error) {
	return value.Value{}, fmt.Errorf("engine: bad_result(%d) always fails", b.n)
}
