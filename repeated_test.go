package monomi

import (
	"fmt"
	"strings"
	"testing"
)

// Differential test for the repeated-query fast path: the same
// parameterized shapes executed over and over with different values —
// prepared statements and ad-hoc SQL, warm plan cache and cold — must stay
// byte-identical to the plaintext engine, in-process (rows handed over) and
// over the transport (framed
// stream; warm prepared executions additionally run server-side registered
// statements by id instead of re-shipping SQL).

// repShape is a parameterized query plus its ad-hoc textual form and the
// i-th parameter binding.
type repShape struct {
	sql     string             // parameterized (prepared-statement) form
	adhoc   func(i int) string // same query with the i-th literals inline
	params  func(i int) map[string]any
	ordered bool
}

func repShapes(t *testing.T) []repShape {
	t.Helper()
	dateOf := func(i int) string { return fmt.Sprintf("199%d-06-15", 5+i%4) }
	dp := func(i int) any {
		v, err := DateParam(dateOf(i))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cats := []string{"ale", "bock", "cider", "dubbel"}
	return []repShape{
		{
			sql: "SELECT s_id, s_price FROM sales WHERE s_price >= :lo ORDER BY s_id",
			adhoc: func(i int) string {
				return fmt.Sprintf("SELECT s_id, s_price FROM sales WHERE s_price >= %d ORDER BY s_id", 200*(i%4))
			},
			params:  func(i int) map[string]any { return map[string]any{"lo": 200 * (i % 4)} },
			ordered: true,
		},
		{
			sql: "SELECT s_cat, SUM(s_price), COUNT(*) FROM sales WHERE s_qty < :q GROUP BY s_cat ORDER BY s_cat",
			adhoc: func(i int) string {
				return fmt.Sprintf("SELECT s_cat, SUM(s_price), COUNT(*) FROM sales WHERE s_qty < %d GROUP BY s_cat ORDER BY s_cat", 10+10*(i%4))
			},
			params:  func(i int) map[string]any { return map[string]any{"q": 10 + 10*(i%4)} },
			ordered: true,
		},
		{
			sql: "SELECT COUNT(*) FROM sales WHERE s_cat = :c",
			adhoc: func(i int) string {
				return fmt.Sprintf("SELECT COUNT(*) FROM sales WHERE s_cat = '%s'", cats[i%len(cats)])
			},
			params:  func(i int) map[string]any { return map[string]any{"c": cats[i%len(cats)]} },
			ordered: false,
		},
		{
			sql: "SELECT SUM(s_price) FROM sales WHERE s_date < :d",
			adhoc: func(i int) string {
				return fmt.Sprintf("SELECT SUM(s_price) FROM sales WHERE s_date < date '%s'", dateOf(i))
			},
			params:  func(i int) map[string]any { return map[string]any{"d": dp(i)} },
			ordered: false,
		},
	}
}

// TestDifferentialRepeatedQueries sweeps the fast-path grid: for each mode
// and deployment, each shape runs once cold (plan cache reset) and then
// repeatedly warm with varying parameters, prepared and ad-hoc, every
// execution compared against the plaintext engine. Warm executions must
// report a plan-cache hit; cold ones must not.
func TestDifferentialRepeatedQueries(t *testing.T) {
	sys := diffSystem(t)
	defer sys.Close()
	srv, err := sys.Serve("127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rem, err := sys.ConnectRemote(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	shapes := repShapes(t)
	const reps = 3
	for _, d := range []struct {
		name string
		s    *System
	}{{"inproc", sys}, {"wire", rem}} {
		for si, sh := range shapes {
			tag := fmt.Sprintf("%s shape=%d", d.name, si)
			stmt, err := d.s.Prepare(sh.sql)
			if err != nil {
				t.Fatalf("%s prepare: %v", tag, err)
			}
			d.s.ResetPlanCache()
			var coldRows []string
			for i := 0; i < reps; i++ {
				plain, err := sys.QueryPlaintext(sh.adhoc(i))
				if err != nil {
					t.Fatalf("%s plaintext i=%d: %v", tag, i, err)
				}
				want := canonicalRows(t, plain.Data, sh.ordered)

				prep, err := stmt.Query(sh.params(i))
				if err != nil {
					t.Fatalf("%s prepared i=%d: %v", tag, i, err)
				}
				got := canonicalRows(t, prep.Data, sh.ordered)
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("%s prepared i=%d diverges from plaintext:\n%v\nvs\n%v", tag, i, got, want)
				}
				if i == 0 {
					coldRows = got
					if prep.PlanCacheHit {
						t.Errorf("%s: cold execution reported a plan-cache hit", tag)
					}
				} else if !prep.PlanCacheHit {
					t.Errorf("%s i=%d: warm prepared execution missed the plan cache", tag, i)
				}

				adhoc, err := d.s.Query(sh.adhoc(i))
				if err != nil {
					t.Fatalf("%s adhoc i=%d: %v", tag, i, err)
				}
				got = canonicalRows(t, adhoc.Data, sh.ordered)
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("%s adhoc i=%d diverges from plaintext:\n%v\nvs\n%v", tag, i, got, want)
				}
			}
			// The uncached path must agree with the warm one:
			// re-run binding 0 cold and compare to the cached
			// execution's rows.
			d.s.ResetPlanCache()
			again, err := stmt.Query(sh.params(0))
			if err != nil {
				t.Fatalf("%s cold rerun: %v", tag, err)
			}
			got := canonicalRows(t, again.Data, sh.ordered)
			if strings.Join(got, "\n") != strings.Join(coldRows, "\n") {
				t.Fatalf("%s: cold rerun diverges from first execution:\n%v\nvs\n%v", tag, got, coldRows)
			}
			stmt.Close()
		}
	}
}

// TestRepeatedQueryPlanCacheStats runs the repeated grid's HOM-heavy shape
// through a prepared statement and checks results and the facade's
// plan-cache accounting: the counters must add up.
func TestRepeatedQueryPlanCacheStats(t *testing.T) {
	db := NewDatabase()
	db.MustCreateTable("ev", Col("e_id", Int), Col("e_grp", Int), Col("e_val", Int))
	for i := 0; i < 150; i++ {
		db.MustInsert("ev", i, i%7, i%53)
	}
	opts := DefaultOptions()
	opts.PaillierBits = 256
	opts.SpaceBudget = 0
	sys, err := Encrypt(db, Workload{
		"sum": "SELECT e_grp, SUM(e_val) FROM ev WHERE e_val < 40 GROUP BY e_grp",
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	stmt, err := sys.Prepare("SELECT e_grp, SUM(e_val), COUNT(*) FROM ev WHERE e_val < :hi GROUP BY e_grp ORDER BY e_grp")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		hi := 10 + 10*i
		res, err := stmt.Query(map[string]any{"hi": hi})
		if err != nil {
			t.Fatalf("hi=%d: %v", hi, err)
		}
		plain, err := sys.QueryPlaintext(fmt.Sprintf(
			"SELECT e_grp, SUM(e_val), COUNT(*) FROM ev WHERE e_val < %d GROUP BY e_grp ORDER BY e_grp", hi))
		if err != nil {
			t.Fatal(err)
		}
		got := canonicalRows(t, res.Data, true)
		want := canonicalRows(t, plain.Data, true)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("hi=%d result diverges from plaintext:\n%v\nvs\n%v", hi, got, want)
		}
	}
	st := sys.PlanCacheStats()
	if st.Hits < 3 {
		t.Errorf("expected >=3 plan-cache hits, got %+v", st)
	}
	if st.Misses < 1 {
		t.Errorf("expected >=1 plan-cache miss, got %+v", st)
	}
}

// hotpathShapes are the hotpath benchmark's three prepared statements and
// their i-th parameter bindings.
var hotpathShapes = []struct {
	sql    string
	params func(i int) map[string]any
}{
	{"SELECT e_id, e_val FROM ev WHERE e_id = :id", func(i int) map[string]any { return map[string]any{"id": 37 * i} }},
	{"SELECT e_id, e_val FROM ev WHERE e_val BETWEEN :lo AND :hi", func(i int) map[string]any {
		return map[string]any{"lo": 90 * i, "hi": 90*i + 19}
	}},
	{"SELECT SUM(e_val), COUNT(*) FROM ev WHERE e_grp = :g", func(i int) map[string]any { return map[string]any{"g": 7 * i} }},
}

// literalSQL is sql with its parameters written inline.
func literalSQL(sql string, params map[string]any) string {
	for name, v := range params {
		sql = strings.ReplaceAll(sql, ":"+name, fmt.Sprint(v))
	}
	return sql
}

// hotpathSystem encrypts ev(e_id, e_grp, e_val), 3 000 rows, under the
// hotpath shapes as its workload.
func hotpathSystem(t *testing.T) *System {
	t.Helper()
	db := NewDatabase()
	db.MustCreateTable("ev", Col("e_id", Int), Col("e_grp", Int), Col("e_val", Int))
	for i := 0; i < 3000; i++ {
		db.MustInsert("ev", i, i%100, 7919*i%1000)
	}
	opts := DefaultOptions()
	opts.PaillierBits = 256
	workload := Workload{}
	for i, sh := range hotpathShapes {
		workload[fmt.Sprint("q", i)] = literalSQL(sh.sql, sh.params(1))
	}
	sys, err := Encrypt(db, workload, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestDifferentialHotpathShapes runs the hotpath benchmark's three prepared
// statements — a DET point lookup, an OPE range and a grouped sum folded on
// the client — over the repeated grid. Their residuals only re-select what
// was decrypted, so the client returns the decoded rows without running its
// engine: the in-process and remote results must match the plaintext
// engine's rows, and their columns must match each other's and the cold
// execution's.
func TestDifferentialHotpathShapes(t *testing.T) {
	sys, shapes, literal := hotpathSystem(t), hotpathShapes, literalSQL
	defer sys.Close()
	srv, err := sys.Serve("127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rem, err := sys.ConnectRemote(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	cols := make([][]string, len(shapes)) // the first execution's, per shape
	for si, sh := range shapes {
		near, err := sys.Prepare(sh.sql)
		if err != nil {
			t.Fatal(err)
		}
		far, err := rem.Prepare(sh.sql)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			tag := fmt.Sprintf("shape=%d i=%d", si, i)
			plain, err := sys.QueryPlaintext(literal(sh.sql, sh.params(i)))
			if err != nil {
				t.Fatalf("%s plaintext: %v", tag, err)
			}
			want := strings.Join(canonicalRows(t, plain.Data, false), "\n")
			for _, st := range []*Stmt{near, far} {
				got, err := st.Query(sh.params(i))
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if g := strings.Join(canonicalRows(t, got.Data, false), "\n"); g != want {
					t.Fatalf("%s remote=%v diverges from plaintext:\n%s\nvs\n%s", tag, st == far, g, want)
				}
				if cols[si] == nil {
					cols[si] = got.Cols
				}
				if fmt.Sprint(got.Cols) != fmt.Sprint(cols[si]) || len(got.Cols) != len(plain.Cols) {
					t.Fatalf("%s remote=%v: columns %v, want %v", tag, st == far, got.Cols, cols[si])
				}
			}
		}
		near.Close()
		far.Close()
	}
}

// TestTPCHSecondPassHitsPlanCache runs the supported TPC-H queries twice on
// one System. The plan cache keys a statement by its text, literals inline,
// so on the second pass every query reuses its template — except Q11 and
// Q22, whose scalar subqueries the client pre-executes and substitutes, a
// data-dependent constant no template can rebind — and returns the first
// pass's rows.
func TestTPCHSecondPassHitsPlanCache(t *testing.T) {
	db, err := TPCH(0.0005, 1)
	if err != nil {
		t.Fatal(err)
	}
	workload := Workload{}
	for _, qn := range TPCHQueries() {
		workload[fmt.Sprintf("Q%02d", qn)] = mustTPCH(qn)
	}
	opts := DefaultOptions()
	opts.PaillierBits = 256
	sys, err := Encrypt(db, workload, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	first := map[int]string{}
	for pass := 0; pass < 2; pass++ {
		for _, qn := range TPCHQueries() {
			rows, err := sys.Query(mustTPCH(qn))
			if err != nil {
				t.Fatalf("pass %d Q%d: %v", pass, qn, err)
			}
			got := strings.Join(canonicalRows(t, rows.Data, true), "\n")
			if pass == 0 {
				if rows.PlanCacheHit {
					t.Errorf("Q%d: the first execution reported a plan-cache hit", qn)
				}
				first[qn] = got
				continue
			}
			if want := qn != 11 && qn != 22; rows.PlanCacheHit != want {
				t.Errorf("Q%d second pass: PlanCacheHit = %v, want %v", qn, rows.PlanCacheHit, want)
			}
			if got != first[qn] {
				t.Errorf("Q%d second pass diverges from the first:\n%s\nvs\n%s", qn, got, first[qn])
			}
		}
	}
}
