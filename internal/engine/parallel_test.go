package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Morsel-execution equivalence: every query shape must produce results and
// Stats byte-identical to one worker's at every GOMAXPROCS, and concurrent
// use of one engine must be race-free (run with -race). The fixtures are
// small, so the tests shrink the batch, and with it the morsel.

// parallelFixture builds facts(f_id, f_dim, f_val, f_tag, f_grp) with rows
// rows and dims(d_id, d_name) with 100 rows, seeded pseudo-random. f_grp is
// f_id mod 24: more groups than TestParallelMatchesSequential's 16
// morsels, each in all of them.
func parallelFixture(t testing.TB, rows int) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	cat := storage.NewCatalog()
	facts, err := cat.Create(storage.Schema{
		Name: "facts",
		Cols: []storage.Column{
			{Name: "f_id", Type: storage.TInt},
			{Name: "f_dim", Type: storage.TInt},
			{Name: "f_val", Type: storage.TInt},
			{Name: "f_tag", Type: storage.TStr},
			{Name: "f_grp", Type: storage.TInt},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dims, err := cat.Create(storage.Schema{
		Name: "dims",
		Cols: []storage.Column{
			{Name: "d_id", Type: storage.TInt},
			{Name: "d_name", Type: storage.TStr},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tags := []string{"red", "green", "blue", "cyan"}
	for i := 0; i < rows; i++ {
		facts.MustInsert([]value.Value{
			value.NewInt(int64(i)),
			value.NewInt(rng.Int63n(100)),
			value.NewInt(rng.Int63n(1000)),
			value.NewStr(tags[rng.Intn(len(tags))]),
			value.NewInt(int64(i % 24)),
		})
	}
	for i := 0; i < 100; i++ {
		dims.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewStr(fmt.Sprintf("dim-%02d", i))})
	}
	return New(cat)
}

// equivalenceQueries covers each morsel loop: filter, hash-join probe,
// projection with ORDER BY, grouped aggregation (builtin, DISTINCT, UDF,
// star, empty input), HAVING, and the subquery fallback path.
var equivalenceQueries = []string{
	`SELECT f_id FROM facts WHERE f_val > 500`,
	`SELECT f_id, f_val * 2 + 1 FROM facts WHERE f_val < 900 ORDER BY f_val DESC, f_id LIMIT 37`,
	`SELECT DISTINCT f_tag FROM facts ORDER BY f_tag`,
	`SELECT f_dim, SUM(f_val), COUNT(*), AVG(f_val), MIN(f_val), MAX(f_val)
	   FROM facts GROUP BY f_dim ORDER BY f_dim`,
	`SELECT COUNT(DISTINCT f_val), SUM(DISTINCT f_val) FROM facts`,
	`SELECT f_tag, COUNT(DISTINCT f_dim) FROM facts GROUP BY f_tag ORDER BY f_tag`,
	// Every group in every morsel; dyadic scalings keep the Float sums
	// exact, so the rows agree across batch sizes too.
	`SELECT f_grp, SUM(f_val * 0.25), AVG(f_val / 8.0), COUNT(DISTINCT f_dim), MIN(f_tag), MAX(f_val * 0.5)
	   FROM facts GROUP BY f_grp ORDER BY f_grp`,
	`SELECT SUM(f_val), COUNT(*) FROM facts WHERE f_id < 700`,
	`SELECT SUM(f_val) FROM facts WHERE f_val > 100000`,
	`SELECT f_dim, SUM(f_val) s FROM facts GROUP BY f_dim HAVING s > 3000 ORDER BY s DESC, f_dim`,
	`SELECT d_name, SUM(f_val), my_sum(f_val) FROM facts, dims
	   WHERE f_dim = d_id AND f_val > 250 GROUP BY d_name ORDER BY d_name`,
	`SELECT COUNT(*) FROM facts, dims WHERE f_dim = d_id AND f_val + d_id < 400`,
	`SELECT COUNT(*) FROM dims WHERE EXISTS (
	   SELECT 1 FROM facts WHERE f_dim = d_id AND f_val > 900)`,
	`SELECT f_dim FROM facts WHERE f_val = (SELECT MAX(f_val) FROM facts)`,
}

func registerMySum(e *Engine) {
	e.RegisterAgg("my_sum", func(st *Stats) AggState { return &sumUDF{} })
}

func renderResult(t *testing.T, r *Result) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(strings.Join(r.Cols, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		for j, v := range row {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestParallelMatchesSequential(t *testing.T) {
	e := parallelFixture(t, 2000)
	e.batchSize = 16 // 16 morsels of 128 rows
	registerMySum(e)
	for _, sql := range equivalenceQueries {
		q := sqlparser.MustParse(sql)
		procs(t, 1)
		seqRes, seqErr := e.Execute(q, nil)
		for _, p := range []int{2, 3, 8, 64} {
			procs(t, p)
			res, err := e.Execute(q, nil)
			if (err == nil) != (seqErr == nil) {
				t.Fatalf("p=%d err=%v, sequential err=%v\n%s", p, err, seqErr, sql)
			}
			if err != nil {
				continue
			}
			if got, want := renderResult(t, res), renderResult(t, seqRes); got != want {
				t.Errorf("p=%d diverges on %s\ngot:\n%s\nwant:\n%s", p, sql, got, want)
			}
			// Stats must not depend on the worker count.
			if res.Stats != seqRes.Stats {
				t.Errorf("p=%d stats diverge on %s: %+v vs %+v", p, sql, res.Stats, seqRes.Stats)
			}
		}
	}
}

// TestParallelErrorMatchesSequential checks that an evaluation error deep in
// a later morsel surfaces identically to the one-worker scan.
func TestParallelErrorMatchesSequential(t *testing.T) {
	e := parallelFixture(t, 500)
	e.batchSize = 8 // 8 morsels of 64 rows
	// The failing aggregate only sees rows past the filter, which all land
	// in late morsels; the error must still surface exactly once.
	q := sqlparser.MustParse(`SELECT f_dim, my_bad(f_val) FROM facts WHERE f_id >= 400 GROUP BY f_dim`)
	e.RegisterAgg("my_bad", func(st *Stats) AggState { return &badUDF{} })
	procs(t, 1)
	_, seqErr := e.Execute(q, nil)
	if seqErr == nil {
		t.Fatal("expected sequential error")
	}
	procs(t, 4)
	_, parErr := e.Execute(q, nil)
	if parErr == nil || parErr.Error() != seqErr.Error() {
		t.Fatalf("parallel err %v, sequential err %v", parErr, seqErr)
	}
}

type badUDF struct{}

func (b *badUDF) Add(args []value.Value) error { return fmt.Errorf("engine: my_bad always fails") }
func (b *badUDF) Merge(other AggState) error   { return nil }
func (b *badUDF) Result() (value.Value, error) { return value.NewNull(), nil }

// TestBuiltinAggMerge exercises morsel-partial merging directly, including
// DISTINCT replay and empty partials.
func TestBuiltinAggMerge(t *testing.T) {
	mk := func(fn ast.AggFunc, distinct bool, vals ...int64) *BuiltinAgg {
		s := NewBuiltinAgg(fn, distinct)
		for _, v := range vals {
			if err := s.Add([]value.Value{value.NewInt(v)}); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	cases := []struct {
		name string
		a, b *BuiltinAgg
		want string
	}{
		{"sum", mk(ast.AggSum, false, 1, 2), mk(ast.AggSum, false, 3), "6"},
		{"sum-empty-right", mk(ast.AggSum, false, 5), mk(ast.AggSum, false), "5"},
		{"sum-empty-left", mk(ast.AggSum, false), mk(ast.AggSum, false, 7), "7"},
		{"sum-both-empty", mk(ast.AggSum, false), mk(ast.AggSum, false), "NULL"},
		{"count", mk(ast.AggCount, false, 1, 1), mk(ast.AggCount, false, 1), "3"},
		{"avg", mk(ast.AggAvg, false, 1, 2), mk(ast.AggAvg, false, 6), "3"},
		{"min", mk(ast.AggMin, false, 5, 9), mk(ast.AggMin, false, 3), "3"},
		{"max", mk(ast.AggMax, false, 5), mk(ast.AggMax, false, 2, 4), "5"},
		{"min-empty-right", mk(ast.AggMin, false, 5), mk(ast.AggMin, false), "5"},
		{"sum-distinct", mk(ast.AggSum, true, 1, 2, 2), mk(ast.AggSum, true, 2, 3), "6"},
		{"count-distinct", mk(ast.AggCount, true, 1, 2), mk(ast.AggCount, true, 2, 3, 3), "3"},
	}
	for _, tc := range cases {
		if err := tc.a.Merge(tc.b); err != nil {
			t.Fatal(err)
		}
		if got, _ := tc.a.Result(); got.String() != tc.want {
			t.Errorf("%s: merged result = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestConcurrentExecutes runs many goroutines against one engine, each
// executing queries of several morsels, and checks every result against the
// one-worker output. Run with -race to surface data races in the morsel
// paths.
func TestConcurrentExecutes(t *testing.T) {
	e := parallelFixture(t, 1200)
	e.batchSize = 16
	registerMySum(e)
	queries := make([]*ast.Query, len(equivalenceQueries))
	want := make([]string, len(equivalenceQueries))
	procs(t, 1)
	for i, sql := range equivalenceQueries {
		queries[i] = sqlparser.MustParse(sql)
		res, err := e.Execute(queries[i], nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want[i] = renderResult(t, res)
	}
	procs(t, 4)

	const workers = 8
	const iters = 3
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				for i, q := range queries {
					res, err := e.Execute(q, nil)
					if err != nil {
						errs <- fmt.Errorf("%s: %v", equivalenceQueries[i], err)
						return
					}
					if got := renderResult(t, res); got != want[i] {
						errs <- fmt.Errorf("%s: diverged under concurrency", equivalenceQueries[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMorselBounds: morsels are morselBatches batches of the engine's grid,
// a source of fewer than two such morsels splits in halves unless it is
// under 2·minMorselRows, and the morsels are contiguous and cover the
// source exactly; an empty source is one empty morsel.
func TestMorselBounds(t *testing.T) {
	e := New(storage.NewCatalog())
	for _, tc := range []struct{ batch, n, want int }{
		{0, 0, 1}, {0, 63, 1}, {0, 64, 2}, {0, 1500, 2}, {0, 16383, 2}, {0, 16384, 2},
		{0, 16385, 3}, {0, 60175, 8}, {4, 101, 4}, {1, 8, 1}, {1, 100, 13},
	} {
		e.batchSize = tc.batch
		c := &execCtx{eng: e}
		k := c.morselCount(tc.n)
		if k != tc.want {
			t.Fatalf("batch %d: %d rows cut into %d morsels, want %d", tc.batch, tc.n, k, tc.want)
		}
		prev := 0
		for i := 0; i < k; i++ {
			lo, hi := c.morsel(i, tc.n)
			if lo != prev || hi < lo || hi-lo > e.morselRows() {
				t.Fatalf("batch %d n %d: morsel %d is [%d,%d) after %d", tc.batch, tc.n, i, lo, hi, prev)
			}
			prev = hi
		}
		if prev != tc.n {
			t.Fatalf("batch %d: morsels of %d rows end at %d", tc.batch, tc.n, prev)
		}
	}
}

// procs sets GOMAXPROCS to n until the test ends. A test that calls it must
// not run in parallel with others.
func procs(tb testing.TB, n int) {
	old := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(old) })
}
