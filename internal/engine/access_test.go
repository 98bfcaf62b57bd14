package engine

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// accessFixture builds ev(e_id, e_cat, e_val, e_opt) with seeded random
// rows — including NULLs in the indexed columns — plus a dimension table
// dim(d_cat, d_w) for join-build coverage, and indexes: a hash index on
// e_cat and d_cat (equality/IN/join), an ordered index on e_val (ranges),
// when indexes is set. The rows do not depend on indexes, so the two
// fixtures compare the index paths with the scans. 600 rows are several
// morsels at a small batch, and several stream batches.
func accessFixture(t *testing.T, indexes bool) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	cat := storage.NewCatalog()
	ev, err := cat.Create(storage.Schema{
		Name: "ev",
		Cols: []storage.Column{
			{Name: "e_id", Type: storage.TInt},
			{Name: "e_cat", Type: storage.TStr},
			{Name: "e_val", Type: storage.TInt},
			{Name: "e_opt", Type: storage.TInt},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cats := []string{"ale", "bock", "cider", "dubbel"}
	for i := 0; i < 600; i++ {
		c := value.NewStr(cats[rng.Intn(len(cats))])
		v := value.NewInt(rng.Int63n(1000))
		if rng.Intn(20) == 0 {
			c = value.Value{} // NULL key: indexed predicates must skip it
		}
		if rng.Intn(20) == 0 {
			v = value.Value{}
		}
		ev.MustInsert([]value.Value{value.NewInt(int64(i)), c, v, value.NewInt(rng.Int63n(7))})
	}
	dim, err := cat.Create(storage.Schema{
		Name: "dim",
		Cols: []storage.Column{
			{Name: "d_cat", Type: storage.TStr},
			{Name: "d_w", Type: storage.TInt},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range append(cats, "stray") {
		dim.MustInsert([]value.Value{value.NewStr(c), value.NewInt(int64(i))})
		if i%2 == 0 { // duplicate build keys
			dim.MustInsert([]value.Value{value.NewStr(c), value.NewInt(int64(i + 10))})
		}
	}
	dim.MustInsert([]value.Value{{}, value.NewInt(99)}) // NULL build key
	if indexes {
		for _, ix := range []struct {
			t    *storage.Table
			col  string
			kind storage.IndexKind
		}{{ev, "e_cat", storage.HashIndex}, {ev, "e_val", storage.OrderedIndex}, {dim, "d_cat", storage.HashIndex}} {
			if err := ix.t.DeclareIndex(ix.col, ix.kind); err != nil {
				t.Fatal(err)
			}
		}
	}
	return New(cat)
}

// renderResult canonicalizes a result verbatim: rows, order, and encodings
// all participate in the comparison.
func renderAccess(res *Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Cols, ","))
	for _, row := range res.Rows {
		b.WriteByte('\n')
		for j, v := range row {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.HashKey())
		}
	}
	return b.String()
}

// accessShapes are the query shapes the index paths can serve (plus shapes
// that must fall back), each run with and without indexes.
var accessShapes = []string{
	// DET hash probes
	`SELECT e_id, e_val FROM ev WHERE e_cat = 'ale'`,
	`SELECT COUNT(*) FROM ev WHERE e_cat = 'bock' AND e_val > 500`,
	`SELECT e_id FROM ev WHERE e_cat IN ('ale', 'cider') AND e_opt < 3`,
	// OPE range probes
	`SELECT e_id FROM ev WHERE e_val < 40`,
	`SELECT e_id, e_cat FROM ev WHERE e_val BETWEEN 100 AND 160`,
	`SELECT COUNT(*), SUM(e_val) FROM ev WHERE e_val >= 960`,
	// `const op col`: no probe, the scan serves it
	`SELECT e_id FROM ev WHERE 'dubbel' = e_cat`,
	`SELECT e_id FROM ev WHERE 120 >= e_val AND e_opt = 2`,
	// NULL-bound predicates match nothing, with or without indexes
	`SELECT e_id FROM ev WHERE e_cat = NULL`,
	`SELECT e_id FROM ev WHERE e_val < NULL`,
	// unselective: the cost rule must keep the scan
	`SELECT e_id FROM ev WHERE e_val >= 0`,
	`SELECT COUNT(*) FROM ev WHERE e_val <= 999`,
	// grouped and DISTINCT over an index-restricted source
	`SELECT e_cat, COUNT(*), SUM(e_val) FROM ev WHERE e_val < 300 GROUP BY e_cat ORDER BY e_cat`,
	`SELECT DISTINCT e_opt FROM ev WHERE e_cat = 'ale'`,
	// ORDER BY over NULL and duplicate keys, and top-N
	`SELECT e_id, e_val FROM ev ORDER BY e_val`,
	`SELECT e_id, e_val FROM ev ORDER BY e_val DESC`,
	`SELECT e_id, e_val FROM ev WHERE e_cat = 'cider' ORDER BY e_val, e_id LIMIT 9`,
	// join: build side served from dim's hash index
	`SELECT e_id, d_w FROM ev, dim WHERE e_cat = d_cat AND e_val < 150`,
	`SELECT d_cat, COUNT(*) FROM ev, dim WHERE e_cat = d_cat GROUP BY d_cat ORDER BY d_cat`,
	// several sargable conjuncts: the shortest id list restricts the scan
	`SELECT e_id, e_val FROM ev WHERE e_cat = 'ale' AND e_val < 200`,
	`SELECT COUNT(*), SUM(e_val) FROM ev WHERE e_cat = 'cider' AND e_val BETWEEN 100 AND 300 AND e_val <= 220`,
	`SELECT e_id FROM ev WHERE e_cat = 'ale' AND e_cat = 'bock'`,
}

// TestAccessPathEquivalence pins every shape's result across declared
// indexes × GOMAXPROCS × batchSize against the index-free sequential
// materialized baseline — the engine-level version of the byte-identity
// contract.
func TestAccessPathEquivalence(t *testing.T) {
	base := make(map[string]string)
	procs(t, 1)
	scan := accessFixture(t, false)
	for _, sql := range accessShapes {
		base[sql] = renderAccess(run(t, scan, sql, nil))
	}
	var e *Engine
	for _, idx := range []bool{false, true} {
		e = accessFixture(t, idx)
		for _, par := range []int{1, 4} {
			procs(t, par)
			for _, bs := range []int{0, 32} {
				e.batchSize = bs
				for _, sql := range accessShapes {
					got := renderAccess(run(t, e, sql, nil))
					if got != base[sql] {
						t.Errorf("idx=%v p=%d bs=%d %s diverges:\n%s\nvs\n%s", idx, par, bs, sql, got, base[sql])
					}
				}
			}
		}
	}
	if lookups, _ := e.IndexStats(); lookups == 0 {
		t.Fatal("no index probe was ever taken")
	}
}

// TestAccessPathStreaming pins the streaming API the same way: every shape
// consumed through ExecuteStream with indexes declared must equal the
// materialized index-free result, across GOMAXPROCS and batch size.
func TestAccessPathStreaming(t *testing.T) {
	scan, e := accessFixture(t, false), accessFixture(t, true)
	procs(t, 1)
	base := make(map[string]string)
	for _, sql := range accessShapes {
		base[sql] = renderAccess(run(t, scan, sql, nil))
	}
	for _, par := range []int{1, 4} {
		procs(t, par)
		for _, bs := range []int{16, 128} {
			e.batchSize = bs
			for _, sql := range accessShapes {
				q, err := sqlparser.Parse(sql)
				if err != nil {
					t.Fatal(err)
				}
				s, err := e.ExecuteStream(q, nil)
				if err != nil {
					t.Fatalf("p=%d bs=%d %s: %v", par, bs, sql, err)
				}
				res := &Result{Cols: s.Cols()}
				for {
					b, err := s.Next()
					if err != nil {
						t.Fatalf("p=%d bs=%d %s: %v", par, bs, sql, err)
					}
					if b == nil {
						break
					}
					res.Rows = append(res.Rows, b...)
				}
				if got := renderAccess(res); got != base[sql] {
					t.Errorf("p=%d bs=%d stream %s diverges:\n%s\nvs\n%s", par, bs, sql, got, base[sql])
				}
			}
		}
	}
}

// TestIndexCharging checks the cost model's visible side: a selective probe
// charges index lookups, skips most of the scan, and reads proportionally
// fewer bytes; an unselective range keeps the full scan and charges nothing.
func TestIndexCharging(t *testing.T) {
	e := accessFixture(t, true)
	full := run(t, e, `SELECT COUNT(*) FROM ev WHERE e_val >= 0`, nil)
	if full.Stats.IndexLookups != 0 || full.Stats.RowsSkippedByIndex != 0 {
		t.Errorf("unselective range used the index: %+v", full.Stats)
	}
	if full.Stats.RowsScanned != 600 {
		t.Errorf("full scan read %d rows, want 600", full.Stats.RowsScanned)
	}
	sel := run(t, e, `SELECT e_id FROM ev WHERE e_cat = 'ale'`, nil)
	if sel.Stats.IndexLookups != 1 {
		t.Errorf("IndexLookups = %d, want 1", sel.Stats.IndexLookups)
	}
	k := sel.Stats.RowsScanned
	if k == 0 || k >= 600 {
		t.Fatalf("index scan read %d rows", k)
	}
	if sel.Stats.RowsSkippedByIndex != 600-k {
		t.Errorf("RowsSkippedByIndex = %d, want %d", sel.Stats.RowsSkippedByIndex, 600-k)
	}
	if sel.Stats.BytesScanned >= full.Stats.BytesScanned {
		t.Errorf("index scan charged %d bytes, full scan %d", sel.Stats.BytesScanned, full.Stats.BytesScanned)
	}
	lookups, skipped := e.IndexStats()
	if lookups != 1 || skipped != 600-k {
		t.Errorf("cumulative counters = (%d, %d), want (1, %d)", lookups, skipped, 600-k)
	}
}

// TestAccessPathBesideSubquery: a single-table block whose WHERE holds a
// sargable conjunct and a subquery is an ordinary block — the conjunct
// restricts the scan through its index, the subquery filters what is
// fetched — and returns what the full scan returns.
func TestAccessPathBesideSubquery(t *testing.T) {
	scan, e := accessFixture(t, false), accessFixture(t, true)
	for _, sql := range []string{
		`SELECT e_id FROM ev WHERE e_cat = 'ale' AND e_val > (SELECT AVG(e_val) FROM ev)`,
		`SELECT e_id FROM ev WHERE e_cat = 'bock' AND EXISTS (SELECT 1 FROM dim WHERE d_cat = e_cat AND d_w < e_opt)`,
		`SELECT e_id, (SELECT MAX(d_w) FROM dim WHERE d_cat = e_cat) FROM ev WHERE e_val BETWEEN 100 AND 150`,
	} {
		want := run(t, scan, sql, nil)
		got := run(t, e, sql, nil)
		if renderAccess(got) != renderAccess(want) {
			t.Errorf("%s diverges with indexes declared:\n%s\nvs\n%s", sql, renderAccess(got), renderAccess(want))
		}
		if got.Stats.RowsSkippedByIndex == 0 || got.Stats.RowsScanned >= want.Stats.RowsScanned {
			t.Errorf("%s did not take the index: %+v", sql, got.Stats)
		}
	}
}

// TestAccessParams checks parameter-bound sargable predicates: the probe
// value arrives at execution time, and a NaN parameter disables the index
// without changing results.
func TestAccessParams(t *testing.T) {
	scan, e := accessFixture(t, false), accessFixture(t, true)
	params := map[string]value.Value{"c": value.NewStr("bock"), "v": value.NewInt(200)}
	want := renderAccess(run(t, scan, `SELECT e_id FROM ev WHERE e_cat = :c AND e_val < :v`, params))
	res := run(t, e, `SELECT e_id FROM ev WHERE e_cat = :c AND e_val < :v`, params)
	if got := renderAccess(res); got != want {
		t.Errorf("param probe diverges:\n%s\nvs\n%s", got, want)
	}
	if res.Stats.IndexLookups == 0 {
		t.Error("param-bound predicate did not probe the index")
	}
	nan := map[string]value.Value{"v": value.NewFloat(fmtNaN())}
	r2 := run(t, e, `SELECT COUNT(*) FROM ev WHERE e_val < :v`, nan)
	if r2.Stats.IndexLookups != 0 {
		t.Errorf("NaN constant must not probe the index: %+v", r2.Stats)
	}
}

func fmtNaN() float64 {
	var f float64
	return f / f * 0 // NaN via 0/0; avoids importing math just for this
}

// TestAccessMultiConjunctShortest pins the multi-conjunct index path:
// every sargable conjunct is probed, the shortest id list restricts the
// scan, the residual filter applies the rest, and the charged stats count
// every probe plus the rows the kept list avoided fetching.
func TestAccessMultiConjunctShortest(t *testing.T) {
	scan, e := accessFixture(t, false), accessFixture(t, true)
	check := func(sql string) *Result {
		t.Helper()
		want := renderAccess(run(t, scan, sql, nil))
		res := run(t, e, sql, nil)
		if got := renderAccess(res); got != want {
			t.Errorf("%s diverges with indexes declared:\n%s\nvs\n%s", sql, got, want)
		}
		if res.Stats.RowsSkippedByIndex != 600-res.Stats.RowsScanned {
			t.Errorf("%s: RowsSkippedByIndex = %d with %d rows scanned", sql, res.Stats.RowsSkippedByIndex, res.Stats.RowsScanned)
		}
		return res
	}

	// 124 'ale' postings against 116 rows in the range: the range's list
	// is the one scanned.
	res := check(`SELECT e_id, e_val FROM ev WHERE e_cat = 'ale' AND e_val < 200`)
	if res.Stats.RowsScanned != 116 || res.Stats.IndexLookups != 2 {
		t.Errorf("scanned %d rows with %d lookups, want the 116-row range list and 2 lookups", res.Stats.RowsScanned, res.Stats.IndexLookups)
	}

	// A conjunct too unselective to win the cost rule alone ('cider' has
	// 159 postings, 159*4 >= 600) is still probed, and a shorter range
	// list serves the block.
	r3 := check(`SELECT e_id FROM ev WHERE e_cat = 'cider' AND e_val BETWEEN 100 AND 300 AND e_val <= 220`)
	if r3.Stats.IndexLookups != 3 || r3.Stats.RowsScanned >= 159 {
		t.Errorf("three conjuncts: %d lookups, %d rows scanned; want 3 and fewer than the 'cider' postings", r3.Stats.IndexLookups, r3.Stats.RowsScanned)
	}

	// Contradictory equalities still return no rows.
	if rc := check(`SELECT e_id FROM ev WHERE e_cat = 'ale' AND e_cat = 'bock'`); len(rc.Rows) != 0 {
		t.Errorf("contradiction returned %d rows", len(rc.Rows))
	}

	// Only `col op const` probes: the mirrored forms are served by the scan.
	for _, sql := range []string{
		`SELECT e_id FROM ev WHERE 'dubbel' = e_cat`,
		`SELECT e_id FROM ev WHERE 120 >= e_val`,
	} {
		if r := check(sql); r.Stats.IndexLookups != 0 || r.Stats.RowsScanned != 600 {
			t.Errorf("%s probed an index: %+v", sql, r.Stats)
		}
	}
}

// TestAccessIndexedINParams pins index-served IN over bound parameters —
// the shape a prepared statement with parameter IN elements produces — one
// hash probe per non-NULL element, results identical to the index-off scan.
func TestAccessIndexedINParams(t *testing.T) {
	scan, e := accessFixture(t, false), accessFixture(t, true)
	sql := `SELECT e_id, e_opt FROM ev WHERE e_cat IN (:a, :b)`
	params := map[string]value.Value{"a": value.NewStr("ale"), "b": value.NewStr("stray")}
	want := renderAccess(run(t, scan, sql, params))
	res := run(t, e, sql, params)
	if got := renderAccess(res); got != want {
		t.Errorf("IN over params diverges:\n%s\nvs\n%s", got, want)
	}
	if res.Stats.IndexLookups != 2 {
		t.Errorf("IndexLookups = %d, want 2 (one per IN element)", res.Stats.IndexLookups)
	}
	if res.Stats.RowsScanned == 0 || res.Stats.RowsScanned >= 600 {
		t.Errorf("IN over params scanned %d rows", res.Stats.RowsScanned)
	}

	// Mixed literal and parameter elements probe the same way, and a second
	// sargable conjunct is probed beside the IN union.
	mixed := `SELECT e_id FROM ev WHERE e_cat IN ('ale', :b) AND e_val < 200`
	wantMixed := renderAccess(run(t, scan, mixed, params))
	rm := run(t, e, mixed, params)
	if got := renderAccess(rm); got != wantMixed {
		t.Errorf("mixed IN diverges:\n%s\nvs\n%s", got, wantMixed)
	}
	if rm.Stats.IndexLookups != 3 {
		t.Errorf("IndexLookups = %d, want 3 (two IN elements + one range)", rm.Stats.IndexLookups)
	}

	// A NULL-bound element matches nothing and is skipped without a probe;
	// the remaining element still serves the query.
	pn := map[string]value.Value{"a": value.NewStr("ale"), "b": value.NewNull()}
	wantNull := renderAccess(run(t, scan, sql, pn))
	rn := run(t, e, sql, pn)
	if got := renderAccess(rn); got != wantNull {
		t.Errorf("NULL-element IN diverges:\n%s\nvs\n%s", got, wantNull)
	}
	if rn.Stats.IndexLookups != 1 {
		t.Errorf("IndexLookups = %d, want 1 (NULL element costs no probe)", rn.Stats.IndexLookups)
	}
}
