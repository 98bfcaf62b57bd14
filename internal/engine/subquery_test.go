package engine

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Subquery planning tests. open plans a block's subqueries before the
// block's first chain exists and nothing writes the plan memo afterwards, so
// a block with subqueries cuts into morsels like any other. The shapes below put every
// kind of plan — run once, decorrelated, naive, and what lies beneath a
// naive one — where morsel workers evaluate it; run with -race, a plan
// written (or first built) from a worker is a reported race.

// subqueryShapes run over parallelFixture: facts(f_id, f_dim, f_val, f_tag),
// dims(d_id, d_name), d_id = 0..99.
var subqueryShapes = []string{
	// A naive subquery nested in a naive subquery: neither correlation is an
	// equality, and the inner one reaches past its parent to the outermost row.
	`SELECT f_id FROM facts WHERE f_val > (
	   SELECT COUNT(*) * 40 FROM dims WHERE d_id < f_dim AND d_id > 90 AND d_id >= (
	     SELECT MIN(d2.d_id) FROM dims d2 WHERE d2.d_id > f_dim - 5))`,
	// A derived table — with an uncorrelated subquery of its own — inside a
	// naive subquery: re-opened for every outer row.
	`SELECT f_id FROM facts WHERE f_val < (
	   SELECT SUM(t.n) FROM (SELECT d_id AS n FROM dims WHERE d_id < (SELECT AVG(d_id) FROM dims)) t
	   WHERE t.n < f_dim)`,
	// Q21's shape: decorrelated EXISTS and NOT EXISTS with a residual, in the
	// WHERE of a grouped block.
	`SELECT f_tag, COUNT(*) FROM facts f1
	  WHERE EXISTS (SELECT * FROM facts f2 WHERE f2.f_dim = f1.f_dim AND f2.f_id <> f1.f_id)
	    AND NOT EXISTS (SELECT * FROM facts f3
	                     WHERE f3.f_dim = f1.f_dim AND f3.f_id <> f1.f_id AND f3.f_val > f1.f_val)
	  GROUP BY f_tag ORDER BY f_tag`,
	// A decorrelated EXISTS whose inner predicates and residual name
	// subqueries of their own.
	`SELECT d_id FROM dims WHERE EXISTS (
	   SELECT 1 FROM facts WHERE f_dim = d_id AND f_val > (SELECT AVG(f_val) FROM facts)
	      AND f_id + d_id IN (SELECT f_id FROM facts WHERE f_tag = 'red'))`,
	// Scalar subqueries in the SELECT list (decorrelated) and in HAVING.
	`SELECT f_id, (SELECT d_name FROM dims WHERE d_id = f_dim) FROM facts WHERE f_val > 800`,
	`SELECT f_dim, SUM(f_val) FROM facts GROUP BY f_dim
	  HAVING SUM(f_val) > (SELECT AVG(f_val) * 18 FROM facts) ORDER BY f_dim`,
	// A grouping key and an aggregate argument that name subqueries.
	`SELECT f_dim IN (SELECT d_id FROM dims WHERE d_id < 50), COUNT(*),
	        SUM(CASE WHEN EXISTS (SELECT 1 FROM dims WHERE d_id = f_val) THEN 1 ELSE 0 END)
	   FROM facts GROUP BY f_dim IN (SELECT d_id FROM dims WHERE d_id < 50)`,
	// IN under OR; correlated IN (decorrelated), NOT IN, and a naive IN.
	`SELECT f_id FROM facts WHERE f_val > 990 OR f_dim IN (SELECT d_id FROM dims WHERE d_id < 5)`,
	`SELECT f_id FROM facts WHERE f_val IN (SELECT d_id * 7 FROM dims WHERE d_id = f_dim)`,
	`SELECT f_id FROM facts WHERE f_dim NOT IN (SELECT d_id FROM dims WHERE d_id > 3) ORDER BY f_id DESC`,
	`SELECT d_id FROM dims WHERE d_id IN (SELECT f_dim FROM facts WHERE f_val < d_id AND f_id < 300)`,
	// A subquery in the ORDER BY of a block that also limits.
	`SELECT f_id FROM facts WHERE f_val > 900
	  ORDER BY (SELECT d_name FROM dims WHERE d_id = f_dim) DESC, f_id LIMIT 20`,
}

// TestSubqueryBlocksShard: at GOMAXPROCS 4 × batch size 0/64 every shape returns
// exactly the rows — and charges exactly the scans and subquery runs — of
// the sequential unbounded run.
func TestSubqueryBlocksShard(t *testing.T) {
	e := parallelFixture(t, 600)
	for _, sql := range subqueryShapes {
		q := sqlparser.MustParse(sql)
		procs(t, 1)
		e.batchSize = 0
		want, err := e.Execute(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if want.Stats.SubqueryRuns == 0 {
			t.Errorf("%s: no subquery run counted", sql)
		}
		for _, bs := range []int{0, 64} {
			procs(t, 4)
			e.batchSize = bs
			got, err := e.Execute(q, nil)
			if err != nil {
				t.Fatalf("p=4 bs=%d %s: %v", bs, sql, err)
			}
			if g, w := renderResult(t, got), renderResult(t, want); g != w {
				t.Errorf("p=4 bs=%d diverges on %s\ngot:\n%s\nwant:\n%s", bs, sql, g, w)
			}
			if got.Stats.SubqueryRuns != want.Stats.SubqueryRuns ||
				got.Stats.RowsScanned != want.Stats.RowsScanned ||
				got.Stats.BytesScanned != want.Stats.BytesScanned {
				t.Errorf("p=4 bs=%d stats diverge on %s: %+v vs %+v", bs, sql, got.Stats, want.Stats)
			}
		}
	}
}

// TestSubqueryRunsCounter pins what Stats.SubqueryRuns counts: one run for
// a subquery drained once (uncorrelated or decorrelated), one per
// evaluating outer row for a naive one — wherever the rows are evaluated.
func TestSubqueryRunsCounter(t *testing.T) {
	e := parallelFixture(t, 600)
	e.batchSize = 8 // facts is 10 morsels
	for _, tc := range []struct {
		sql  string
		runs int64
	}{
		{`SELECT f_id FROM facts WHERE f_val = (SELECT MAX(f_val) FROM facts)`, 1},
		{`SELECT f_id FROM facts WHERE f_dim IN (SELECT d_id FROM dims WHERE d_id < 5)`, 1},
		{`SELECT d_id FROM dims WHERE EXISTS (SELECT 1 FROM facts WHERE f_dim = d_id AND f_val > 900)`, 1},
		{`SELECT d_id FROM dims WHERE d_id < (SELECT COUNT(*) FROM facts WHERE f_dim = d_id)`, 1},
		{`SELECT d_id FROM dims WHERE d_id IN (SELECT f_val FROM facts WHERE f_dim = d_id)`, 1},
		// Naive: 100 dims rows, 40 of which reach the subquery.
		{`SELECT d_id FROM dims WHERE EXISTS (SELECT 1 FROM facts WHERE f_dim < d_id AND f_val > 990)`, 100},
		{`SELECT d_id FROM dims WHERE d_id >= 60 AND d_id < (SELECT COUNT(*) FROM facts WHERE f_dim > d_id)`, 40},
		// The decorrelated subquery beneath a naive one still runs once.
		{`SELECT d_id FROM dims WHERE d_id < (SELECT COUNT(*) FROM facts WHERE f_dim > d_id
		    AND EXISTS (SELECT 1 FROM dims d2 WHERE d2.d_id = f_dim AND d2.d_id > 97))`, 101},
	} {
		q := sqlparser.MustParse(tc.sql)
		for _, par := range []int{1, 4} {
			procs(t, par)
			res, err := e.Execute(q, nil)
			if err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
			if res.Stats.SubqueryRuns != tc.runs {
				t.Errorf("p=%d SubqueryRuns = %d, want %d: %s", par, res.Stats.SubqueryRuns, tc.runs, tc.sql)
			}
		}
	}
}

// TestSubqueryPlannedAtOpen states the one semantic change of planning at
// open: a subquery that cannot run is the statement's error even when no
// outer row would have evaluated it — and a streamed statement reports it
// before its first batch.
func TestSubqueryPlannedAtOpen(t *testing.T) {
	e := parallelFixture(t, 100)
	for _, sql := range []string{
		`SELECT f_id FROM facts WHERE f_id < 0 AND f_dim IN (SELECT x FROM nosuch)`,
		`SELECT f_id FROM facts WHERE f_id < 0 AND EXISTS (SELECT 1 FROM nosuch WHERE x = f_dim)`,
		// Beneath a naive subquery that no row reaches.
		`SELECT f_id FROM facts WHERE f_id < 0 AND f_val < (
		   SELECT COUNT(*) FROM dims WHERE d_id < f_dim AND d_id IN (SELECT x FROM nosuch))`,
	} {
		q := sqlparser.MustParse(sql)
		if _, err := e.Execute(q, nil); err == nil || !strings.Contains(err.Error(), "nosuch") {
			t.Errorf("Execute err = %v, want unknown table nosuch: %s", err, sql)
		}
		if s, err := e.ExecuteStream(q, nil); err == nil {
			s.Close()
			t.Errorf("ExecuteStream opened: %s", sql)
		}
	}
	// A statement without subqueries creates no memo.
	q := sqlparser.MustParse(`SELECT f_dim, SUM(f_val) FROM facts, dims WHERE f_dim = d_id GROUP BY f_dim`)
	c := e.newCtx(q, nil, math.MaxInt)
	if _, err := c.execQuery(q, nil); err != nil {
		t.Fatal(err)
	}
	if c.subq != nil {
		t.Errorf("plan memo allocated for a statement without subqueries")
	}
}

// TestSubqueryDecorrelateErrorIsTheStatements: when draining the inner side
// of a decorrelatable subquery fails, that is the statement's error,
// returned once from open — not a reason to retry the subquery naively for
// every outer row (which only the analysis, errNoDecorrelate, may choose).
func TestSubqueryDecorrelateErrorIsTheStatements(t *testing.T) {
	e := parallelFixture(t, 600)
	procs(t, 1) // one worker: the drain stops at the failing row
	var calls atomic.Int64
	e.RegisterScalar("boom", func(st *Stats, args []value.Value) (value.Value, error) {
		if calls.Add(1) == 10 {
			return value.Value{}, fmt.Errorf("engine: boom on its tenth row")
		}
		return value.NewBool(true), nil
	})
	for _, sql := range []string{
		`SELECT d_id FROM dims WHERE EXISTS (SELECT 1 FROM facts WHERE f_dim = d_id AND boom(f_val))`,
		`SELECT d_id FROM dims WHERE d_id < (SELECT COUNT(*) FROM facts WHERE f_dim = d_id AND boom(f_val))`,
		`SELECT d_id FROM dims WHERE d_id IN (SELECT f_val FROM facts WHERE f_dim = d_id AND boom(f_val))`,
	} {
		calls.Store(0)
		q := sqlparser.MustParse(sql)
		c := e.newCtx(q, nil, math.MaxInt)
		_, err := c.open(q, nil)
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("open err = %v, want boom: %s", err, sql)
		}
		if c.stats.SubqueryRuns > 1 || calls.Load() != 10 {
			t.Errorf("SubqueryRuns = %d, boom calls = %d: the failed drain was retried: %s",
				c.stats.SubqueryRuns, calls.Load(), sql)
		}
	}
}

// TestCorrelationOutsideWhere: a subquery that reads the outer row outside
// its WHERE — in a derived table, which sees the block enclosing the
// subquery, or in its ORDER BY — runs per outer row. Decorrelating it ran
// that clause with no outer row and failed on the outer column.
func TestCorrelationOutsideWhere(t *testing.T) {
	cat := storage.NewCatalog()
	for _, tb := range []struct{ name, col string }{{"t", "b"}, {"u", "c"}} {
		tab, err := cat.Create(storage.Schema{Name: tb.name, Cols: []storage.Column{{Name: "a", Type: storage.TInt}, {Name: tb.col, Type: storage.TInt}}})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 5; i++ {
			v := 10 - i // t.b
			if tb.name == "u" {
				v = 2 * i // u.c
			}
			tab.MustInsert([]value.Value{value.NewInt(i), value.NewInt(v)})
		}
	}
	e := New(cat)
	for _, sql := range []string{
		"SELECT a FROM t WHERE EXISTS (SELECT 1 FROM (SELECT c FROM u WHERE c = t.b - 6) d WHERE d.c = t.a + 4)",
		"SELECT a FROM t WHERE a IN (SELECT d.c - 4 FROM (SELECT c FROM u WHERE c = t.b - 6) d WHERE d.c = t.a + 4)",
		"SELECT a FROM t WHERE 1 = (SELECT COUNT(*) FROM (SELECT c FROM u WHERE c = t.b - 6) d WHERE d.c = t.a + 4)",
		"SELECT a FROM t WHERE a IN (SELECT u.a FROM u WHERE u.c = t.b - 10 ORDER BY t.b)",
		"SELECT a FROM t WHERE 0 = (SELECT MAX(c) FROM u WHERE u.a = t.a ORDER BY t.b)",
	} {
		if res := run(t, e, sql, nil); fmt.Sprint(res.Rows) != "[[0]]" {
			t.Errorf("%s = %v, want [[0]]", sql, res.Rows)
		}
	}
	// An ORDER BY naming the subquery's own alias reads no outer row: the
	// subquery is still decorrelated, run once.
	sql := "SELECT a FROM t WHERE a IN (SELECT u.a AS k FROM u WHERE u.c = t.b - 10 ORDER BY k)"
	if res := run(t, e, sql, nil); fmt.Sprint(res.Rows) != "[[0]]" || res.Stats.SubqueryRuns != 1 {
		t.Errorf("%s = %v in %d subquery runs, want [[0]] in 1", sql, res.Rows, res.Stats.SubqueryRuns)
	}
}
