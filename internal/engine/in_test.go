package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// IN and NOT IN in three-valued logic, on every evaluation path: the constant
// list, the hashed subquery (uncorrelated and decorrelated) and the naive
// subquery.

// inFixture builds t(a, k) = {(1,1), (2,1), (3,2), (NULL,2)}, u(b, k) =
// {(1,1), (NULL,1), (3,2)} and an empty e(b).
func inFixture(t *testing.T) *Engine {
	t.Helper()
	cat := storage.NewCatalog()
	mk := func(name string, cols []string, rows [][]value.Value) {
		s := storage.Schema{Name: name}
		for _, c := range cols {
			s.Cols = append(s.Cols, storage.Column{Name: c, Type: storage.TInt})
		}
		tbl, err := cat.Create(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			tbl.MustInsert(r)
		}
	}
	i, null := value.NewInt, value.NewNull()
	mk("t", []string{"a", "k"}, [][]value.Value{{i(1), i(1)}, {i(2), i(1)}, {i(3), i(2)}, {null, i(2)}})
	mk("u", []string{"b", "uk"}, [][]value.Value{{i(1), i(1)}, {null, i(1)}, {i(3), i(2)}})
	mk("e", []string{"eb"}, nil)
	return New(cat)
}

// rowsOf renders a one-column result as a sorted list ("NULL" for NULL).
func rowsOf(res *Result) string {
	var out []string
	for _, r := range res.Rows {
		out = append(out, r[0].String())
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

func TestInThreeValued(t *testing.T) {
	for _, tc := range []struct{ sql, want string }{
		// A non-member of a set holding a NULL is NULL, not FALSE.
		{`SELECT a FROM t WHERE a NOT IN (1, NULL)`, ""},
		{`SELECT a FROM t WHERE NOT (a IN (1, NULL))`, ""},
		{`SELECT a FROM t WHERE a NOT IN (SELECT b FROM u)`, ""},
		{`SELECT a FROM t WHERE NOT (a IN (SELECT b FROM u))`, ""},
		// IN keeps the match and drops the non-member either way.
		{`SELECT a FROM t WHERE a IN (1, NULL)`, "1"},
		{`SELECT a FROM t WHERE a IN (SELECT b FROM u)`, "1,3"},
		// Without a NULL in the set, a non-NULL non-member is FALSE.
		{`SELECT a FROM t WHERE a NOT IN (1, 3)`, "2"},
		{`SELECT a FROM t WHERE a NOT IN (SELECT b FROM u WHERE b IS NOT NULL)`, "2"},
		// A NULL left side is NULL against a non-empty set, FALSE against
		// the empty one.
		{`SELECT k FROM t WHERE a IS NULL AND a IN (1, 2)`, ""},
		{`SELECT k FROM t WHERE a IS NULL AND a NOT IN (1, 2)`, ""},
		{`SELECT k FROM t WHERE a IS NULL AND a NOT IN (SELECT b FROM u)`, ""},
		{`SELECT k FROM t WHERE a NOT IN (SELECT eb FROM e)`, "1,1,2,2"},
		{`SELECT k FROM t WHERE a IN (SELECT eb FROM e)`, ""},
		// Decorrelated: the NULL is recorded per correlation key — uk 1 holds
		// one, uk 2 does not.
		{`SELECT a FROM t WHERE a NOT IN (SELECT b FROM u WHERE uk = k)`, ""},
		{`SELECT k FROM t WHERE a NOT IN (SELECT b FROM u WHERE uk = k + 1)`, "1,1,2,2"},
		{`SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE uk = k)`, "1,3"},
		// Naive (the correlation is not an equality).
		{`SELECT a FROM t WHERE a NOT IN (SELECT b FROM u WHERE uk <= k)`, ""},
		{`SELECT a FROM t WHERE a NOT IN (SELECT b FROM u WHERE uk < k)`, "1,2"},
		{`SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE uk <= k)`, "1,3"},
	} {
		for _, par := range []int{1, 4} {
			e := inFixture(t)
			e.Parallelism = par
			if got := rowsOf(run(t, e, tc.sql, nil)); got != tc.want {
				t.Errorf("p=%d %s\n got  [%s]\n want [%s]", par, tc.sql, got, tc.want)
			}
		}
	}
}

// inListFixture is facts(f) over -20..299 with NULLs and integral floats.
func inListFixture(t testing.TB) *Engine {
	cat := storage.NewCatalog()
	tbl, err := cat.Create(storage.Schema{Name: "facts", Cols: []storage.Column{{Name: "f", Type: storage.TInt}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := -20; i < 300; i++ {
		v := value.NewInt(int64(i))
		switch {
		case i%37 == 0:
			v = value.NewNull()
		case i%11 == 0:
			v = value.NewFloat(float64(i))
		}
		tbl.MustInsert([]value.Value{v})
	}
	return New(cat)
}

// inListElems builds n list elements: duplicates, mixed Int/Float
// spellings of the same numbers, non-integral floats and, when nulls is set,
// NULLs.
func inListElems(n int, nulls bool) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		x := int64(i*7%250 - 10)
		switch {
		case nulls && i%13 == 5:
			out[i] = value.NewNull()
		case i%5 == 0:
			out[i] = value.NewFloat(float64(x))
		case i%9 == 0:
			out[i] = value.NewFloat(float64(x) + 0.5)
		default:
			out[i] = value.NewInt(x)
		}
	}
	return out
}

// TestInListMatchesDefinition: a constant list keeps the rows three-valued
// IN keeps, 2 = 2.0, duplicates and NULLs included, whether its elements are
// literals or parameters.
func TestInListMatchesDefinition(t *testing.T) {
	e := inListFixture(t)
	for _, n := range []int{0, 1, 16, 4096} {
		for _, nulls := range []bool{false, true} {
			elems := inListElems(n, nulls)
			for _, not := range []bool{false, true} {
				lits := &ast.InExpr{E: &ast.ColumnRef{Column: "f"}, Not: not}
				params := &ast.InExpr{E: &ast.ColumnRef{Column: "f"}, Not: not}
				bind := make(map[string]value.Value, n)
				for i, v := range elems {
					lits.List = append(lits.List, &ast.Literal{Val: v})
					name := fmt.Sprintf("p%d", i)
					params.List = append(params.List, &ast.Param{Name: name})
					bind[name] = v
				}
				want := expectIn(e, elems, not)
				for _, in := range []*ast.InExpr{lits, params} {
					q := sqlparser.MustParse(`SELECT f FROM facts`)
					q.Where = in
					res, err := e.Execute(q, bind)
					if err != nil {
						t.Fatal(err)
					}
					if got := rowsOf(res); got != want {
						t.Errorf("n=%d nulls=%v not=%v: got [%s]\nwant [%s]", n, nulls, not, got, want)
					}
				}
			}
		}
	}
}

// expectIn evaluates f [NOT] IN elems over the fixture by the definition.
func expectIn(e *Engine, elems []value.Value, not bool) string {
	tbl, _ := e.Cat.Table("facts")
	rows, _, _ := tbl.ScanRows(0, tbl.NumRows())
	var keep []string
	for _, r := range rows {
		f := r[0]
		member, unknown := false, f.IsNull() && len(elems) > 0
		for _, v := range elems {
			if f.IsNull() {
				break
			}
			if v.IsNull() {
				unknown = true
			} else if value.Compare(f, v) == 0 {
				member = true
			}
		}
		if member != not && (member || !unknown) {
			keep = append(keep, f.String())
		}
	}
	sort.Strings(keep)
	return strings.Join(keep, ",")
}
