package engine

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sqlparser"
)

// One tree: Execute drains what ExecuteStream returns. For every query in
// the package's test tables, at every ⟨BatchSize, Parallelism⟩, the two
// must agree on rows, row order and every statistic, and neither may leave
// a goroutine behind.

// breakerQueries are the shapes that run through a child tree or a
// non-grouping breaker — subqueries of every kind, a derived table, sorts
// without a LIMIT, post-join sort and DISTINCT — over parallelFixture, so
// they meet batch boundaries and shard seams.
var breakerQueries = []string{
	`SELECT f_id FROM facts WHERE f_dim IN (SELECT d_id FROM dims WHERE d_id < 7) AND f_val > 900`,
	`SELECT d_id FROM dims WHERE d_id IN (SELECT f_dim FROM facts WHERE f_val = d_id * 10)`,
	`SELECT d_name FROM dims WHERE EXISTS (SELECT 1 FROM facts WHERE f_val > 998)`,
	`SELECT d_name FROM dims WHERE EXISTS (SELECT 1 FROM facts WHERE f_dim = d_id AND f_val > 990)`,
	`SELECT d_name FROM dims WHERE NOT EXISTS (SELECT 1 FROM facts WHERE f_dim = d_id AND f_val < d_id)`,
	`SELECT f_id FROM facts WHERE f_val = (SELECT MAX(f_val) FROM facts) ORDER BY f_id`,
	`SELECT d_id, (SELECT COUNT(*) FROM facts WHERE f_dim = d_id) FROM dims`,
	`SELECT d_id FROM dims WHERE d_id < (SELECT COUNT(*) FROM facts WHERE f_dim = d_id AND f_val > 700)`,
	`SELECT d_id FROM dims WHERE d_id * 9 < (SELECT MAX(f_val) FROM facts WHERE f_dim < d_id) LIMIT 40`,
	`SELECT d_name, f_id FROM facts, dims WHERE f_dim = d_id AND f_val IN (SELECT d_id FROM dims)`,
	`SELECT t.f_dim, t.s FROM (SELECT f_dim, SUM(f_val) s FROM facts GROUP BY f_dim) t WHERE t.s > 9000 ORDER BY t.s DESC`,
	`SELECT d_name, t.n FROM dims, (SELECT f_dim, COUNT(*) n FROM facts WHERE f_val > 500 GROUP BY f_dim) t WHERE d_id = t.f_dim`,
	`SELECT f_id, f_val FROM facts ORDER BY f_val, f_id`,
	`SELECT f_tag, f_id FROM facts WHERE f_val < 300 ORDER BY f_tag DESC, f_id`,
	`SELECT d_name, f_id FROM facts, dims WHERE f_dim = d_id AND f_val > 800 ORDER BY d_name DESC, f_id`,
	`SELECT d_name, f_id FROM facts, dims WHERE f_dim = d_id ORDER BY f_val, f_id LIMIT 25`,
	`SELECT DISTINCT d_name FROM facts, dims WHERE f_dim = d_id AND f_val > 600`,
	`SELECT DISTINCT f_tag, d_name FROM facts, dims WHERE f_dim = d_id ORDER BY d_name, f_tag`,
	`SELECT DISTINCT f_tag FROM facts ORDER BY f_tag LIMIT 3`,
	`SELECT f_dim, COUNT(*) c FROM facts GROUP BY f_dim ORDER BY c DESC, f_dim LIMIT 5`,
}

// settleGoroutines waits for the goroutine count to come back to base: a
// joined worker has called wg.Done but may not have left the scheduler yet.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > base; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestExecuteDrainsExecuteStream(t *testing.T) {
	pf := parallelFixture(t, 2000)
	registerMySum(pf)
	af := accessFixture(t)
	af.UseIndexes = true
	tables := []struct {
		name    string
		e       *Engine
		queries []string
	}{
		{"stream", pf, streamQueries},
		{"shard", pf, shardStreamQueries},
		{"equivalence", pf, equivalenceQueries},
		{"breaker", pf, breakerQueries},
		{"join", joinFixture(t, 500, 40), joinModeQueries},
		{"access", af, accessShapes},
	}
	for _, tb := range tables {
		for _, sql := range tb.queries {
			q := sqlparser.MustParse(sql)
			var rows string // Execute's rows at the first configuration
			for _, bs := range []int{0, 1, 7, 1024} {
				for _, p := range []int{1, 2, 4} {
					tb.e.BatchSize, tb.e.Parallelism = bs, p
					at := fmt.Sprintf("%s bs=%d p=%d %s", tb.name, bs, p, sql)
					base := runtime.NumGoroutine()
					res, err := tb.e.Execute(q, nil)
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if n := settleGoroutines(base); n > base {
						t.Errorf("%s: Execute left %d goroutines behind", at, n-base)
					}
					s, err := tb.e.ExecuteStream(q, nil)
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					frames := drainFrames(t, s)
					if n := settleGoroutines(base); n > base {
						t.Errorf("%s: drained stream left %d goroutines behind", at, n-base)
					}
					got := &Result{Cols: s.Cols(), Stats: s.Stats()}
					limit := bs
					if bs == 0 {
						limit = DefaultBatchSize
					}
					for _, f := range frames {
						if len(f) == 0 || len(f) > limit {
							t.Errorf("%s: %d-row batch, want 1..%d", at, len(f), limit)
						}
						got.Rows = append(got.Rows, f...)
					}
					if g, w := renderAccess(got), renderAccess(res); g != w {
						t.Errorf("%s: stream batches != Execute rows\ngot:\n%s\nwant:\n%s", at, g, w)
					}
					if got.Stats != res.Stats {
						t.Errorf("%s: stream stats %+v != Execute stats %+v", at, got.Stats, res.Stats)
					}
					if rows == "" {
						rows = renderAccess(res)
					} else if g := renderAccess(res); g != rows {
						t.Errorf("%s: rows differ from bs=0 p=1\ngot:\n%s\nwant:\n%s", at, g, rows)
					}
				}
			}
		}
	}
}

// TestAbandonedStreamLeavesNothing closes a ResultStream after its first
// batch — over a sharded scan, a sharded join, a sharded front feeding a
// correlated EXISTS on the consumer, and a sort — and requires every
// producer to be gone when Close returns.
func TestAbandonedStreamLeavesNothing(t *testing.T) {
	e := parallelFixture(t, 8000)
	for _, sql := range []string{
		`SELECT f_id FROM facts WHERE f_val >= 0`,
		`SELECT d_name, f_id FROM facts, dims WHERE f_dim = d_id`,
		`SELECT f_id FROM facts WHERE EXISTS (SELECT 1 FROM dims WHERE d_id = f_dim AND d_id < f_val)`,
		`SELECT f_id FROM facts WHERE f_dim IN (SELECT d_id FROM dims WHERE d_id > 3)`,
		`SELECT f_id, f_val FROM facts ORDER BY f_val, f_id`,
	} {
		q := sqlparser.MustParse(sql)
		for _, bs := range []int{0, 32} {
			e.BatchSize, e.Parallelism = bs, 4
			base := runtime.NumGoroutine()
			for i := 0; i < 10; i++ {
				s, err := e.ExecuteStream(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				if b, err := s.Next(); err != nil || len(b) == 0 {
					t.Fatalf("bs=%d %s: first batch %d rows, err %v", bs, sql, len(b), err)
				}
				s.Close()
				if b, err := s.Next(); b != nil || err != nil {
					t.Fatalf("bs=%d %s: post-Close Next = (%v, %v)", bs, sql, b, err)
				}
			}
			if n := settleGoroutines(base); n > base {
				t.Errorf("bs=%d %s: abandoned streams left %d goroutines behind", bs, sql, n-base)
			}
		}
	}
}
