package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/value"
)

// Page-predicate tests: a paged scan whose filter splits into a page
// predicate and a residual (pagePred) keeps exactly the rows the whole
// filter's Keep keeps, on every read shape.

// keepOnly hides a filter's page predicate: the disk store then calls the
// whole filter's Keep on every row, as it did before page predicates.
type keepOnly struct{ f storage.Filter }

func (k keepOnly) Cols() []int                          { return k.f.Cols() }
func (k keepOnly) Keep(row []value.Value) (bool, error) { return k.f.Keep(row) }

// predColumns are the page-predicate fixture's columns after its unread
// pad: each draws from a small domain so that equalities hit, and each
// 10-row block of a column either keeps the column's fixed shape or mixes
// NULLs (and, for b, other lengths) in, so pages hold both fixed and tagged
// regions of every column. m mixes every kind.
var predColumns = []string{"i", "d", "b", "s", "f", "m", "o"}

// predValue draws a value of column kind k ("i" … "o", or "any" for a
// constant of every kind); odd adds NULLs and off-width Bytes.
func predValue(rng *rand.Rand, k string, odd bool) value.Value {
	if odd && rng.Intn(4) == 0 {
		return value.NewNull()
	}
	switch k {
	case "i":
		return value.NewInt(int64(rng.Intn(11) - 5))
	case "d":
		return value.NewDate(int64(rng.Intn(11)))
	case "b":
		words := []string{"aaaa", "aaab", "abcd", "zzzz", "abc"}
		if !odd {
			words = words[:4]
		}
		if odd && rng.Intn(4) == 0 {
			return value.NewBytes([]byte("abcde"))
		}
		return value.NewBytes([]byte(words[rng.Intn(len(words))]))
	case "s":
		return value.NewStr([]string{"", "a", "ab", "b"}[rng.Intn(4)])
	case "f":
		return value.NewFloat([]float64{-1.5, 0, 0.5, 2, 3, math.NaN()}[rng.Intn(6)])
	case "o":
		return value.NewBool(rng.Intn(2) == 0)
	}
	kinds := append([]string{}, predColumns[:len(predColumns)-2]...) // "m"/"any": every kind
	kinds = append(kinds, "o")
	return predValue(rng, kinds[rng.Intn(len(kinds))], rng.Intn(3) == 0)
}

// predFixture loads n rows of pad + predColumns into a disk table of
// 1 KiB pages behind a 4-page cache; the last rows stay an unsealed tail.
func predFixture(t *testing.T, rng *rand.Rand, n int) *storage.Table {
	t.Helper()
	cat := storage.NewCatalogWith(storage.BackendConfig{Kind: storage.BackendDisk, Dir: t.TempDir(), PageBytes: 1024, CacheBytes: 4096})
	t.Cleanup(func() { cat.Close() })
	cols := []storage.Column{{Name: "pad", Type: storage.TBytes}}
	for _, c := range predColumns {
		cols = append(cols, storage.Column{Name: c, Type: storage.TInt})
	}
	tb, err := cat.Create(storage.Schema{Name: "pt", Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	odd := make([]bool, len(predColumns))
	for r := 0; r < n; r++ {
		if r%10 == 0 {
			for c := range odd {
				odd[c] = rng.Intn(3) == 0
			}
		}
		row := []value.Value{value.NewBytes([]byte(fmt.Sprintf("pad-%d", r)))}
		for c, k := range predColumns {
			row = append(row, predValue(rng, k, odd[c]))
		}
		tb.MustInsert(row)
	}
	return tb
}

// predGen draws random filters over the fixture's columns, and binds the
// parameters it writes.
type predGen struct {
	rng    *rand.Rand
	params map[string]value.Value
}

func (g *predGen) col() *ast.ColumnRef {
	return &ast.ColumnRef{Table: "pt", Column: predColumns[g.rng.Intn(len(predColumns))]}
}

// konst is a literal, NULL included, or a parameter bound to one: mostly of
// col's own kind, so that fixed regions meet constants of their family, else
// of any kind.
func (g *predGen) konst(col *ast.ColumnRef) ast.Expr {
	k := col.Column
	if g.rng.Intn(3) == 0 {
		k = "any"
	}
	v := predValue(g.rng, k, g.rng.Intn(4) == 0)
	if g.rng.Intn(3) > 0 {
		return &ast.Literal{Val: v}
	}
	name := fmt.Sprintf("p%d", len(g.params))
	g.params[name] = v
	return &ast.Param{Name: name}
}

func (g *predGen) list(col *ast.ColumnRef) []ast.Expr {
	var l []ast.Expr
	for n := g.rng.Intn(4); n > 0; n-- { // empty lists included
		l = append(l, g.konst(col))
	}
	return l
}

// expr draws a predicate: sargable atoms most of the time, then the shapes
// a page predicate leaves to the residual, and AND/OR/NOT over them.
func (g *predGen) expr(depth int) ast.Expr {
	cmp := []ast.BinOp{ast.OpEq, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe}
	n := 10
	if depth == 0 {
		n = 7
	}
	c := g.col()
	switch g.rng.Intn(n) {
	case 0, 1, 6:
		return &ast.BinaryExpr{Op: cmp[g.rng.Intn(len(cmp))], Left: c, Right: g.konst(c)}
	case 2:
		return &ast.BetweenExpr{E: c, Lo: g.konst(c), Hi: g.konst(c), Not: g.rng.Intn(5) == 0}
	case 3:
		return &ast.InExpr{E: c, List: g.list(c), Not: g.rng.Intn(5) == 0}
	case 4: // not sargable: <>, a constant on the left, two columns
		switch g.rng.Intn(3) {
		case 0:
			return &ast.BinaryExpr{Op: ast.OpNe, Left: c, Right: g.konst(c)}
		case 1:
			return &ast.BinaryExpr{Op: cmp[g.rng.Intn(len(cmp))], Left: g.konst(c), Right: c}
		}
		return &ast.BinaryExpr{Op: cmp[g.rng.Intn(len(cmp))], Left: c, Right: g.col()}
	case 5:
		return &ast.IsNullExpr{E: c, Not: g.rng.Intn(2) == 0}
	case 7:
		return &ast.UnaryExpr{E: g.expr(depth - 1)}
	}
	op := ast.OpAnd
	if g.rng.Intn(2) == 0 {
		op = ast.OpOr
	}
	return &ast.BinaryExpr{Op: op, Left: g.expr(depth - 1), Right: g.expr(depth - 1)}
}

// TestPagePredMatchesKeep: random AND/OR/NOT filters over random pages —
// fixed and tagged regions, NULL cells and constants, mixed kinds, empty
// IN lists, parameters — keep the same rows through the page predicate and
// its residual as through Keep alone, on Scan ranges that start and end
// mid-page and on Fetch runs with repeats, into a fresh batch and into a
// Scratch.
func TestPagePredMatchesKeep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 700
	tb := predFixture(t, rng, n)
	e := New(storage.NewCatalog())
	cols := []int{1, 2, 3, 4, 5, 6, 7} // every column but pad
	layout := tableLayout(tb, "pt", cols)
	var s storage.Scratch
	var split, whole, residual int
	for trial := 0; trial < 400; trial++ {
		g := &predGen{rng: rng, params: map[string]value.Value{}}
		var conj []ast.Expr
		for k := 1 + rng.Intn(3); k > 0; k-- {
			conj = append(conj, g.expr(3))
		}
		f := ast.AndAll(conj)
		c := &execCtx{eng: e, stats: &Stats{}, params: g.params}
		p := &pipeline{src: &rowSource{t: tb, cols: cols}, layout: layout}
		p.setFilter(f, g.params)
		switch {
		case p.pred == nil:
			whole++
		case p.rest != nil:
			residual++
			fallthrough
		default:
			split++
		}
		it := &scanIterator{st: c.stats, p: p, en: env{rel: layout, ctx: c}}
		for read := 0; read < 6; read++ {
			var got, want [][]value.Value
			var err, werr error
			into := &s
			if read%2 == 0 {
				into = nil
			}
			if read < 3 {
				lo := rng.Intn(n)
				hi := lo + rng.Intn(n-lo+1)
				want, _, werr = tb.ScanCols(lo, hi, cols, keepOnly{it}, nil)
				got, _, err = tb.ScanCols(lo, hi, cols, it, into)
			} else {
				var ids []int32
				for id := rng.Intn(20); id < n; id += rng.Intn(25) { // repeats included
					ids = append(ids, int32(id))
				}
				want, _, werr = tb.FetchCols(ids, cols, keepOnly{it}, nil)
				got, _, err = tb.FetchCols(ids, cols, it, into)
			}
			if err != nil || werr != nil {
				t.Fatalf("%s: %v / %v", f.SQL(), err, werr)
			}
			if a, b := renderRows(got), renderRows(want); a != b {
				t.Fatalf("trial %d, read %d: %s with %v\npage predicate + residual kept %d rows: %.400s\nKeep kept %d rows: %.400s",
					trial, read, f.SQL(), g.params, len(got), a, len(want), b)
			}
		}
	}
	t.Logf("%d filters split (%d with a residual), %d left whole to Keep", split, residual, whole)
	if split < 100 || residual < 50 || whole < 20 {
		t.Errorf("the generator split %d filters (%d with a residual) and left %d whole: too few of a kind", split, residual, whole)
	}
}

// renderRows renders rows cell by cell with each cell's kind, so a NaN
// matches itself and 1 does not match 1.0.
func renderRows(rows [][]value.Value) string {
	var b strings.Builder
	for _, row := range rows {
		for _, v := range row {
			fmt.Fprintf(&b, "%d:%s|", v.K, v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestPagePredSplit pins which conjuncts a page predicate takes.
func TestPagePredSplit(t *testing.T) {
	tb := predFixture(t, rand.New(rand.NewSource(1)), 50)
	layout := tableLayout(tb, "pt", []int{1, 2, 3})
	i, d := &ast.ColumnRef{Table: "pt", Column: "i"}, &ast.ColumnRef{Table: "pt", Column: "d"}
	one := &ast.Literal{Val: value.NewInt(1)}
	eq := &ast.BinaryExpr{Op: ast.OpEq, Left: i, Right: one}
	lt := &ast.BinaryExpr{Op: ast.OpLt, Left: d, Right: &ast.Param{Name: "x"}}
	outer := &ast.BinaryExpr{Op: ast.OpEq, Left: &ast.ColumnRef{Table: "o", Column: "i"}, Right: one}
	isNull := &ast.IsNullExpr{E: i}
	params := map[string]value.Value{"x": value.NewDate(3)}
	for _, tc := range []struct {
		f          ast.Expr
		pred, rest bool
	}{
		{eq, true, false},
		{ast.AndAll([]ast.Expr{eq, lt}), true, false},
		{&ast.BinaryExpr{Op: ast.OpOr, Left: eq, Right: lt}, true, false},
		{ast.AndAll([]ast.Expr{eq, isNull}), true, true},
		{&ast.BinaryExpr{Op: ast.OpOr, Left: eq, Right: isNull}, false, true},
		{&ast.UnaryExpr{E: eq}, false, true},
		{ast.AndAll([]ast.Expr{outer, lt}), true, true},
		{&ast.BinaryExpr{Op: ast.OpLt, Left: i, Right: d}, false, true},
	} {
		pred, rest := pagePred(tc.f, layout, params)
		if (pred != nil) != tc.pred || (rest != nil) != tc.rest {
			t.Errorf("%s: page predicate %v, residual %v; want %v, %v", tc.f.SQL(), pred != nil, rest, tc.pred, tc.rest)
		}
	}
	// A parameter the execution does not bind leaves the whole filter to
	// Keep, which reports it.
	if pred, rest := pagePred(ast.AndAll([]ast.Expr{eq, lt}), layout, nil); pred != nil || rest == nil {
		t.Errorf("unbound parameter: page predicate %v, residual %v", pred != nil, rest)
	}
}
