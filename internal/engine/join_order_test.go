package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Tests of planJoin's implied filters and of the join order it chooses from
// estimates: what each OR lends its tables, that no row changes under
// three-valued logic, the chosen order and its ties, SELECT * under a
// reordered join, and composite keys served through an index.

// impliedFixture builds a(a_id, a_x, a_z) and b(b_id, b_y, b_w): 40 rows
// each, keyed 0..39, with a NULL in a_x, a_z, b_y or b_w every few rows.
func impliedFixture(t testing.TB) *Engine {
	t.Helper()
	cat := storage.NewCatalog()
	for _, tb := range []struct{ name, id, c1, c2 string }{{"a", "a_id", "a_x", "a_z"}, {"b", "b_id", "b_y", "b_w"}} {
		tbl, err := cat.Create(storage.Schema{Name: tb.name, Cols: []storage.Column{
			{Name: tb.id, Type: storage.TInt}, {Name: tb.c1, Type: storage.TInt}, {Name: tb.c2, Type: storage.TInt},
		}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			c1, c2 := value.NewInt(int64(i%4)), value.NewInt(int64(i%5))
			if i%7 == 3 {
				c1 = value.NewNull()
			}
			if i%6 == 2 {
				c2 = value.NewNull()
			}
			tbl.MustInsert([]value.Value{value.NewInt(int64(i)), c1, c2})
		}
	}
	return New(cat)
}

// planOf plans q's one block over e's catalog, as prepare does.
func planOf(t *testing.T, e *Engine, sql string) (*ast.Query, *joinPlan) {
	t.Helper()
	q, plan, _ := estimateOf(t, e, sql)
	return q, plan
}

// estimateOf is planOf that also returns the estimates the order came from.
func estimateOf(t *testing.T, e *Engine, sql string) (*ast.Query, *joinPlan, *joinEst) {
	t.Helper()
	q := sqlparser.MustParse(sql)
	c := e.newCtx(q, nil, math.MaxInt)
	if err := c.resolve(q); err != nil {
		t.Fatal(err)
	}
	srcs := make([]*rowSource, len(q.From))
	for i := range q.From {
		var err error
		if srcs[i], _, err = c.fromSource(&q.From[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := planJoin(q, c.names(), srcs)
	if err != nil {
		t.Fatal(err)
	}
	return q, plan, newJoinEst(&ast.Scope{Block: q, Cat: c.names()}, srcs, plan.perTable)
}

// TestImpliedFilters pins what each cross-table conjunct lends the FROM
// entries: the OR of its disjuncts' single-table parts, only for an entry
// every disjunct constrains alone, never from under NOT or beside a
// subquery; and the conjunct itself always stays residual.
func TestImpliedFilters(t *testing.T) {
	e := impliedFixture(t)
	const join = "SELECT a_id, b_id FROM a, b WHERE a_id = b_id AND "
	for _, c := range []struct {
		or   string
		a, b string // the filters added to each entry, "" for none
	}{
		{"((a_x = 1 AND b_y = 1) OR (a_x = 2 AND b_y = 2))", "((a_x = 1) OR (a_x = 2))", "((b_y = 1) OR (b_y = 2))"},
		// A disjunct that names b only beside a: b gets nothing.
		{"((a_x = 1 AND b_y = 1) OR a_x = 2)", "((a_x = 1) OR (a_x = 2))", ""},
		{"((a_x = 1 AND a_z = b_w) OR (a_x = 2 AND b_y = 2))", "((a_x = 1) OR (a_x = 2))", ""},
		// Several conjuncts of one table in a disjunct form one part.
		{"((a_x = 1 AND a_z > 2 AND b_y = 1) OR (a_z = 0 AND b_w < 3))",
			"(((a_x = 1) AND (a_z > 2)) OR (a_z = 0))", "((b_y = 1) OR (b_w < 3))"},
		{"NOT ((a_x = 1 AND b_y = 1) OR (a_x = 2 AND b_y = 2))", "", ""},
		{"((a_x = 1 AND b_y IN (SELECT b_w FROM b WHERE b_w > 3)) OR (a_x = 2 AND b_y = 2))", "", ""},
		{"((a_x = 1 AND b_y = 1) OR (a_x = 2 AND b_y = 2 AND EXISTS (SELECT 1 FROM b WHERE b_w = a_z)))", "", ""},
	} {
		q, plan := planOf(t, e, join+c.or)
		for i, want := range []string{c.a, c.b} {
			var got []string
			for _, f := range plan.perTable[i] {
				got = append(got, f.SQL())
			}
			if strings.Join(got, " AND ") != want {
				t.Errorf("%s: %s gets %q, want %q", c.or, q.From[i].Name, got, want)
			}
		}
		or := ast.Conjuncts(q.Where)[1]
		if !slices.Contains(plan.residual, or) {
			t.Errorf("%s: the conjunct is not residual: %v", c.or, plan.residual)
		}
	}
}

// TestImpliedFiltersThreeValued: over rows where disjuncts are NULL, each OR
// keeps exactly the rows of its CASE-wrapped twin, which lends no filter —
// a NULL disjunct beside a TRUE one keeps its row, beside FALSE ones drops
// it, and NOT of an OR drops its NULLs.
func TestImpliedFiltersThreeValued(t *testing.T) {
	e := impliedFixture(t)
	kept := 0
	for _, or := range []string{
		"(a_x = 1 AND b_y = 1) OR (a_x = 2 AND b_y = 2)",
		"(a_x = 1 AND b_w = 1) OR (a_z = 4 AND b_y = 0)",
		"(a_x = 1 AND b_y = 1) OR a_x = 2",
		"(a_x IS NULL AND b_y = 3) OR (a_z = 1 AND b_w IS NULL) OR (a_x = 0 AND b_y = 0)",
		"(a_x < 2 AND b_y > 1 AND a_z <> b_w) OR (a_x > 1 AND b_y < 2)",
		"NOT ((a_x = 1 AND b_y = 1) OR (a_x = 2 AND b_y = 2))",
	} {
		for _, on := range []string{"a_id = b_id", "a_id + 1 = b_id", "a_x = b_y"} {
			got := run(t, e, fmt.Sprintf("SELECT a_id, b_id FROM a, b WHERE %s AND (%s)", on, or), nil)
			want := run(t, e, fmt.Sprintf("SELECT a_id, b_id FROM a, b WHERE %s AND CASE WHEN %s THEN 1 ELSE 0 END = 1", on, or), nil)
			g, w := renderJoinRows(got), renderJoinRows(want)
			sort.Strings(g)
			sort.Strings(w)
			kept += len(w)
			if strings.Join(g, "\n") != strings.Join(w, "\n") {
				t.Errorf("%s ON %s: %d rows, the CASE twin %d", or, on, len(g), len(w))
			}
		}
	}
	if kept == 0 {
		t.Fatal("no statement keeps a row")
	}
}

// orderFixture builds fact (2 000 rows), mid (200) and dim (20), each keyed
// by its row number: fact.f_mid → mid, mid.m_dim → dim, and dim.d_name
// spells the key. The join keys f_mid, m_id and d_id have hash indexes
// when indexes is set.
func orderFixture(t testing.TB, indexes bool) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	mk := func(name string, cols ...string) *storage.Table {
		s := storage.Schema{Name: name}
		for _, c := range cols {
			typ := storage.TInt
			if strings.HasSuffix(c, "_name") {
				typ = storage.TStr
			}
			s.Cols = append(s.Cols, storage.Column{Name: c, Type: typ})
		}
		tbl, err := cat.Create(s)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	fact, mid, dim := mk("fact", "f_id", "f_mid", "f_val"), mk("mid", "m_id", "m_dim"), mk("dim", "d_id", "d_name")
	for i := 0; i < 2000; i++ {
		fact.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 200)), value.NewInt(int64(i % 97))})
	}
	for i := 0; i < 200; i++ {
		mid.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 20))})
	}
	for i := 0; i < 20; i++ {
		dim.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewStr(fmt.Sprintf("d%02d", i))})
	}
	if indexes {
		for tbl, col := range map[*storage.Table]string{fact: "f_mid", mid: "m_id", dim: "d_id"} {
			if err := tbl.DeclareIndex(col, storage.HashIndex); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cat
}

// joinOrder renders a plan's order as its entries' reference names.
func joinOrder(q *ast.Query, plan *joinPlan) string {
	names := []string{q.From[plan.start].RefName()}
	for _, st := range plan.steps {
		names = append(names, q.From[st.next].RefName())
	}
	return strings.Join(names, " ")
}

// TestJoinOrderFromEstimates pins the order the estimates choose: a selective
// filter on the small end of a chain starts it, equal estimates keep the FROM
// order, and a table with no connecting edge is cross joined last. Each
// statement then runs without indexes and with them declared: the order is
// the same, an unfiltered build side on an indexed key is probed (probed),
// and the rows and their order are the same.
func TestJoinOrderFromEstimates(t *testing.T) {
	engines := []*Engine{New(orderFixture(t, false)), New(orderFixture(t, true))}
	for _, c := range []struct {
		sql, want string
		probed    bool
	}{
		// dim filtered to one row starts; mid and fact are attached by the
		// edges that reach them, and fact is probed.
		{"SELECT f_id FROM fact, mid, dim WHERE f_mid = m_id AND m_dim = d_id AND d_name = 'd07'", "dim mid fact", true},
		// A filter on fact alone does not beat the chain's small end: mid and
		// dim join first, and fact, filtered, is hashed.
		{"SELECT f_id FROM fact, mid, dim WHERE f_mid = m_id AND m_dim = d_id AND f_val < 50", "mid dim fact", true},
		// An unfiltered table on a column key is costed as probed, not
		// hashed, so the filtered one starts, whatever the FROM order.
		{"SELECT f_id FROM fact, mid WHERE f_mid = m_id AND m_dim = 3", "mid fact", true},
		{"SELECT f_id FROM mid, fact WHERE f_mid = m_id AND m_dim = 3", "mid fact", true},
		// Both starts cost the same: FROM order.
		{"SELECT a.m_id FROM mid a, mid b WHERE a.m_id = b.m_id", "a b", true},
		{"SELECT a.m_id FROM mid b, mid a WHERE a.m_id = b.m_id", "b a", true},
		// An implied filter makes dim the cheapest start; mid is reached on
		// m_dim, which has no index, and fact's implied filter makes it hashed.
		{"SELECT f_id FROM fact, mid, dim WHERE f_mid = m_id AND m_dim = d_id AND ((d_name = 'd01' AND f_val = 1) OR (d_name = 'd02' AND f_val = 2))", "dim mid fact", false},
		// No edge reaches dim: it is cross joined after the chain.
		{"SELECT f_id, d_name FROM dim, fact, mid WHERE f_mid = m_id", "fact mid dim", true},
		// Cross joins only: the estimates tie, FROM order.
		{"SELECT COUNT(*) FROM dim, mid", "dim mid", false},
	} {
		var want []string
		for i, idx := range []bool{false, true} {
			e := engines[i]
			q, plan := planOf(t, e, c.sql)
			if got := joinOrder(q, plan); got != c.want {
				t.Errorf("%s (indexes %v): order %q, want %q", c.sql, idx, got, c.want)
			}
			res := run(t, e, c.sql, nil)
			if got := renderJoinRows(res); !idx {
				want = got
			} else if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s: %d rows with indexes differ from the %d without", c.sql, len(got), len(want))
			}
			if probed := res.Stats.IndexLookups > 0; idx && probed != c.probed {
				t.Errorf("%s: index lookups %d, want probed builds %v", c.sql, res.Stats.IndexLookups, c.probed)
			}
		}
	}
}

// TestJoinOrderWithoutStatistics: tables that keep no column statistics (a
// client's temp tables) and derived tables, with equal row counts, join in
// the order the planner kept before it had estimates: FROM entry 0 first,
// then the table the first connecting edge names.
func TestJoinOrderWithoutStatistics(t *testing.T) {
	cat := storage.NewCatalog()
	for _, name := range []string{"t1", "t2", "t3"} {
		var rows [][]value.Value
		for i := 0; i < 30; i++ {
			rows = append(rows, []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 3))})
		}
		tbl, err := storage.NewTableFromRows(storage.Schema{Name: name, Cols: []storage.Column{
			{Name: name + "_k", Type: storage.TInt}, {Name: name + "_v", Type: storage.TInt},
		}}, rows)
		if err != nil {
			t.Fatal(err)
		}
		cat.Put(tbl)
	}
	e := New(cat)
	for _, c := range []struct{ sql, want string }{
		{"SELECT t1_k FROM t3, t1, t2 WHERE t1_k = t2_k AND t2_k = t3_k", "t3 t2 t1"},
		{"SELECT t1_k FROM t2, t1, t3 WHERE t3_v = t1_v AND t1_k = t2_k", "t2 t1 t3"},
		{"SELECT t1_k FROM (SELECT t1_k FROM t1) x, t2 WHERE x.t1_k = t2_k", "x t2"},
	} {
		q, plan := planOf(t, e, c.sql)
		if got := joinOrder(q, plan); got != c.want {
			t.Errorf("%s: order %q, want %q", c.sql, got, c.want)
		}
	}
}

// TestJoinEstDerivedKeepsEveryRow: a derived table keeps no column
// statistics, so an equality or IN list on its column keeps every row
// (ast.Selectivity), as in the planner's cost model; the same filter on a
// base column keeps 1/NDV.
func TestJoinEstDerivedKeepsEveryRow(t *testing.T) {
	e := impliedFixture(t)
	_, _, est := estimateOf(t, e, "SELECT d.a_id, b_id FROM (SELECT a_id, a_x FROM a) d, b "+
		"WHERE d.a_id = b_id AND d.a_x = 1 AND d.a_id IN (1, 2) AND b_y = 1")
	if est.rows[0] != 40 {
		t.Errorf("derived table: %v rows after its filters, want all 40", est.rows[0])
	}
	if est.rows[1] != 10 {
		t.Errorf("b: %v rows after b_y = 1, want 40/NDV(b_y) = 10", est.rows[1])
	}
}

// TestJoinOrderSelectStar: a join that starts from a later FROM entry still
// emits SELECT *'s cells in FROM order, in both the projected and the
// streamed result.
func TestJoinOrderSelectStar(t *testing.T) {
	e := New(orderFixture(t, false))
	const sql = "SELECT * FROM fact, mid, dim WHERE f_mid = m_id AND m_dim = d_id AND d_name = 'd07' AND f_val < 30 ORDER BY f_id"
	if q, plan := planOf(t, e, sql); plan.start != 2 {
		t.Fatalf("order %q does not start from dim", joinOrder(q, plan))
	}
	res := run(t, e, sql, nil)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if len(row) != 7 {
			t.Fatalf("row has %d cells, want 7", len(row))
		}
		fid, fmid, mid, mdim, did := row[0].I, row[1].I, row[3].I, row[4].I, row[5].I
		if fmid != fid%200 || mid != fmid || mdim != mid%20 || did != 7 || row[6].S != "d07" || row[2].I != fid%97 {
			t.Fatalf("row %v is not fact, mid, dim in FROM order", row)
		}
	}
	rs, err := e.ExecuteStream(sqlparser.MustParse(sql), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	streamed := &Result{}
	for {
		b, err := rs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		streamed.Rows = append(streamed.Rows, b...)
	}
	if strings.Join(renderJoinRows(streamed), "\n") != strings.Join(renderJoinRows(res), "\n") {
		t.Fatal("streamed SELECT * differs from the drained one")
	}
}

// TestJoinOrderCompositeProbe: a join step on two keys whose build is an
// unfiltered indexed table is index-probed through one key, and keeps the
// rows — NULL keys and all — and the order of the hashed build.
func TestJoinOrderCompositeProbe(t *testing.T) {
	fixture := func(indexes bool) *Engine {
		cat := orderFixture(t, indexes)
		pair, err := cat.Create(storage.Schema{Name: "pair", Cols: []storage.Column{
			{Name: "p_mid", Type: storage.TInt}, {Name: "p_val", Type: storage.TInt}, {Name: "p_tag", Type: storage.TInt},
		}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 600; i++ {
			val := value.NewInt(int64(i % 97))
			if i%11 == 4 {
				val = value.NewNull()
			}
			pair.MustInsert([]value.Value{value.NewInt(int64(i % 200)), val, value.NewInt(int64(i))})
		}
		if indexes {
			for _, col := range []string{"p_mid", "p_val"} {
				if err := pair.DeclareIndex(col, storage.HashIndex); err != nil {
					t.Fatal(err)
				}
			}
		}
		return New(cat)
	}
	const sql = "SELECT f_id, p_tag FROM fact, pair WHERE f_mid = p_mid AND f_val = p_val AND f_val IN (1, 2, 3, 4, 5, 6, 7, 8)"
	var want []string
	for _, idx := range []bool{false, true} {
		e := fixture(idx)
		for _, batch := range []int{0, 7} {
			e.batchSize = batch
			res := run(t, e, sql, nil)
			got := renderJoinRows(res)
			if want == nil {
				want = got
				if len(want) == 0 {
					t.Fatal("no rows")
				}
				continue
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("indexes %v batch %d: %d rows differ from the hashed build's %d", idx, batch, len(got), len(want))
			}
			if idx && res.Stats.IndexLookups != 1 {
				t.Errorf("batch %d: %d index lookups, want the probed build's 1", batch, res.Stats.IndexLookups)
			}
		}
	}
}
