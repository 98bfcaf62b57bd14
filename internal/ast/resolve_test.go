package ast_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
	"repro/internal/tpch"
)

// columns is a Catalog over fixed column lists.
type columns map[string][]string

func (c columns) HasColumn(table, col string) (bool, error) {
	cols, ok := c[table]
	if !ok {
		return false, fmt.Errorf("no table %s", table)
	}
	for _, name := range cols {
		if name == col {
			return true, nil
		}
	}
	return false, nil
}

// resolveCatalog: t and u share a, e has a column named like t's.
var resolveCatalog = columns{
	"t": {"a", "b"},
	"u": {"a", "c"},
	"e": {"a", "b", "d"},
}

// bindings resolves sql and renders each reference's binding as
// "ref->table.column" (the FROM entry's name), "ref->alias(expr)" or
// "ref->outside", in Bind order.
func bindings(t *testing.T, cat ast.Catalog, sql string) (string, error) {
	t.Helper()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %s: %v", sql, err)
	}
	return render(q, cat)
}

func render(q *ast.Query, cat ast.Catalog) (string, error) {
	var out []string
	err := ast.Bind(q, nil, cat, func(c *ast.ColumnRef, b ast.Binding) error {
		switch {
		case b.Block == nil:
			out = append(out, c.SQL()+"->outside")
		case b.Alias != nil:
			out = append(out, c.SQL()+"->alias("+b.Alias.SQL()+")")
		default:
			out = append(out, c.SQL()+"->"+b.Block.From[b.Entry].RefName()+"."+c.Column)
		}
		return nil
	})
	return strings.Join(out, " "), err
}

// TestResolveRules pins one case per rule.
func TestResolveRules(t *testing.T) {
	for _, c := range []struct {
		rule, sql, want string
		err             error
	}{
		{rule: "own FROM", sql: "SELECT b, t.a FROM t WHERE a = 1",
			want: "b->t.b t.a->t.a a->t.a"},
		{rule: "innermost block wins", sql: "SELECT b FROM t WHERE EXISTS (SELECT 1 FROM u WHERE a = 2)",
			want: "b->t.b a->u.a"},
		{rule: "outward correlation", sql: "SELECT a FROM u WHERE c IN (SELECT a FROM e WHERE d = c)",
			want: "a->u.a c->u.c a->e.a d->e.d c->u.c"},
		{rule: "qualifier binds innermost", sql: "SELECT a FROM t x WHERE EXISTS (SELECT 1 FROM u x WHERE x.c = 1)",
			want: "a->x.a x.c->x.c"},
		{rule: "qualifier with missing column", sql: "SELECT a FROM t x WHERE EXISTS (SELECT 1 FROM u x WHERE x.b = 1)",
			err: ast.ErrUnknownColumn},
		{rule: "derived outputs: alias, bare column", sql: "SELECT d.x, b FROM (SELECT u.a AS x, b, c + 1 FROM u, t WHERE u.a = t.a) d",
			want: "d.x->d.x b->d.b u.a->u.a b->t.b c->u.c u.a->u.a t.a->t.a"},
		{rule: "derived table sees its block's parent", sql: "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM (SELECT c FROM u WHERE c = b) d)",
			want: "a->t.a c->u.c c->u.c b->t.b"},
		{rule: "derived table cannot see its siblings", sql: "SELECT d.c FROM t, (SELECT c FROM u WHERE c = b) d",
			err: ast.ErrUnknownColumn},
		{rule: "two entries", sql: "SELECT b FROM t, u WHERE a = 1", err: ast.ErrAmbiguousColumn},
		{rule: "a qualifier naming two entries", sql: "SELECT t.a FROM t, u t", err: ast.ErrAmbiguousColumn},
		{rule: "duplicate derived output names", sql: "SELECT d.a FROM (SELECT a, b AS a FROM t) d", err: ast.ErrAmbiguousColumn},
		{rule: "duplicate output names nobody reads", sql: "SELECT d.b FROM (SELECT a, b AS a, b FROM t) d",
			want: "d.b->d.b a->t.a b->t.b b->t.b"},
		{rule: "unknown column", sql: "SELECT zz FROM t", err: ast.ErrUnknownColumn},
		{rule: "alias first in ORDER BY", sql: "SELECT a AS b FROM t ORDER BY b",
			want: "a->t.a b->alias(a)"},
		{rule: "alias first in HAVING", sql: "SELECT a, SUM(b) AS b FROM t GROUP BY a HAVING b > 7",
			want: "a->t.a b->t.b a->t.a b->alias(SUM(b))"},
		{rule: "qualified names are never aliases", sql: "SELECT a AS b FROM t ORDER BY t.b",
			want: "a->t.a t.b->t.b"},
		{rule: "two SELECT items with one alias", sql: "SELECT a AS x, b AS x FROM t ORDER BY x", err: ast.ErrAmbiguousColumn},
		{rule: "no alias in WHERE", sql: "SELECT a AS x FROM t WHERE x = 1", err: ast.ErrUnknownColumn},
		{rule: "no alias in the SELECT list", sql: "SELECT a AS x, x + 1 FROM t", err: ast.ErrUnknownColumn},
		{rule: "no alias in GROUP BY", sql: "SELECT a AS x FROM t GROUP BY x", err: ast.ErrUnknownColumn},
		{rule: "no alias in a nested block", sql: "SELECT a AS x FROM t WHERE EXISTS (SELECT 1 FROM u ORDER BY x)", err: ast.ErrUnknownColumn},
		{rule: "* and COUNT(*) bind nothing", sql: "SELECT *, COUNT(*) FROM t", want: ""},
		{rule: "unknown table", sql: "SELECT COUNT(*) FROM nosuch", err: errors.New("no table nosuch")},
	} {
		err := ast.Resolve(sqlparser.MustParse(c.sql), resolveCatalog)
		if c.err != nil {
			if err == nil || (!errors.Is(err, c.err) && err.Error() != c.err.Error()) {
				t.Errorf("%s: %s: err %v, want %v", c.rule, c.sql, err, c.err)
			}
			continue
		}
		got, berr := bindings(t, resolveCatalog, c.sql)
		switch {
		case err != nil || berr != nil:
			t.Errorf("%s: %s: %v / %v", c.rule, c.sql, err, berr)
		case got != c.want:
			t.Errorf("%s: %s:\n got %s\nwant %s", c.rule, c.sql, got, c.want)
		}
	}
}

// TestCorrelated: a block is correlated when it, or a block nested in it,
// names a column that binds outside it.
func TestCorrelated(t *testing.T) {
	for sql, want := range map[string]bool{
		"SELECT a FROM u WHERE c = 1":                                         false,
		"SELECT a FROM u WHERE c = b":                                         true,
		"SELECT a FROM u WHERE EXISTS (SELECT 1 FROM e WHERE d = c)":          false,
		"SELECT a FROM u WHERE EXISTS (SELECT 1 FROM e WHERE d = t.b)":        true,
		"SELECT d.c FROM (SELECT c FROM u WHERE c = b) d":                     true,
		"SELECT x FROM (SELECT c AS x FROM u) d WHERE x > 1 ORDER BY x":       false,
		"SELECT c AS x FROM u ORDER BY x":                                     false,
		"SELECT a FROM u WHERE a IN (SELECT a FROM e WHERE b = c)":            false,
		"SELECT a FROM u WHERE a IN (SELECT a FROM e WHERE b = 1 AND zz = 2)": true,
	} {
		if got := ast.Correlated(sqlparser.MustParse(sql), resolveCatalog); got != want {
			t.Errorf("Correlated(%s) = %v, want %v", sql, got, want)
		}
	}
	sub := sqlparser.MustParse("SELECT c FROM u WHERE c = 1")
	s := &ast.Scope{Block: sub, Cat: resolveCatalog}
	for expr, want := range map[string]bool{
		"c = 1": false, "c = b": true, "EXISTS (SELECT 1 FROM e WHERE d = c)": false,
		"EXISTS (SELECT 1 FROM e WHERE d = t.b)": true,
	} {
		e, err := sqlparser.ParseExpr(expr)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Outside(e); got != want {
			t.Errorf("Outside(%s) = %v, want %v", expr, got, want)
		}
	}
}

// TestWithAliases: substitution shares the aliased expression, subqueries
// included, in a copy of the block, and returns the block itself when its
// HAVING and ORDER BY name no alias.
func TestWithAliases(t *testing.T) {
	q := sqlparser.MustParse("SELECT (SELECT MAX(c) FROM u) AS m, a FROM t ORDER BY m + a, a")
	got, err := ast.WithAliases(q)
	if err != nil {
		t.Fatal(err)
	}
	bin := got.OrderBy[0].Expr.(*ast.BinaryExpr)
	if got == q || bin.Left != q.Projections[0].Expr || got.SQL() != "SELECT (SELECT MAX(c) FROM u) AS m, a FROM t ORDER BY ((SELECT MAX(c) FROM u) + a), a" {
		t.Errorf("WithAliases = %s, want the SELECT item's own node", got.SQL())
	}
	if q.OrderBy[0].Expr.SQL() != "(m + a)" {
		t.Errorf("WithAliases rewrote its input: %s", q.SQL())
	}
	same := sqlparser.MustParse("SELECT a AS x FROM t ORDER BY a")
	if got, _ := ast.WithAliases(same); got != same {
		t.Error("a block naming no alias was copied")
	}
}

// TestOutputName is the one rule that names a derived table's columns.
func TestOutputName(t *testing.T) {
	q := sqlparser.MustParse("SELECT a AS x, t.b, a + 1, * FROM t")
	var got []string
	for _, p := range q.Projections {
		got = append(got, ast.OutputName(p))
	}
	if strings.Join(got, ",") != "x,b,(a + 1),*" {
		t.Errorf("OutputName = %v", got)
	}
}

// TestResolveOneTableAllocatesNothing: the engine resolves every statement
// before its first row, so the one-table statements a point query runs must
// resolve without allocating.
func TestResolveOneTableAllocatesNothing(t *testing.T) {
	q := sqlparser.MustParse("SELECT t.a AS x, b FROM t WHERE a = :p AND b BETWEEN 1 AND 5 ORDER BY x DESC")
	if allocs := testing.AllocsPerRun(100, func() {
		if err := ast.Resolve(q, resolveCatalog); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("resolving a one-table statement: %.1f allocs, want 0", allocs)
	}
}

// tpchCatalog is the TPC-H schema as a Catalog.
func tpchCatalog(tb testing.TB) columns {
	cat, err := tpch.Generate(0.0005, 1)
	if err != nil {
		tb.Fatal(err)
	}
	out := columns{}
	for _, name := range cat.Names() {
		t, _ := cat.Table(name)
		for _, c := range t.Schema.Cols {
			out[name] = append(out[name], c.Name)
		}
	}
	for name, cols := range resolveCatalog {
		out[name] = cols
	}
	return out
}

// FuzzResolve: resolution never panics, a Clone resolves to the same
// bindings and the same error, and a statement that resolves binds every
// name it holds once, to an entry or an alias.
func FuzzResolve(f *testing.F) {
	for _, n := range tpch.SupportedQueries() {
		f.Add(tpch.Queries[n])
	}
	f.Add(blockStatement)
	for _, sql := range []string{
		"SELECT b FROM t, u WHERE a = 1",
		"SELECT t.a FROM t, u t",
		"SELECT d.a FROM (SELECT a, b AS a FROM t) d",
		"SELECT a AS b, b AS a FROM t ORDER BY a",
		"SELECT a, SUM(b) AS b FROM t GROUP BY a HAVING b > 7",
		"SELECT a FROM t WHERE EXISTS (SELECT 1 FROM (SELECT c FROM u WHERE c = b) d)",
		"SELECT a FROM u WHERE c IN (SELECT a FROM e WHERE d = c)",
	} {
		f.Add(sql)
	}
	cat := tpchCatalog(f)
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			return
		}
		got, gerr := render(q, cat)
		again, aerr := render(q.Clone(), cat)
		if got != again || fmt.Sprint(gerr) != fmt.Sprint(aerr) {
			t.Fatalf("%s\nbinds %s (%v)\nclone %s (%v)", sql, got, gerr, again, aerr)
		}
		if ast.Resolve(q, cat) != nil {
			return
		}
		// A statement that resolves binds each of its names once, to a FROM
		// entry of a block or to an alias.
		refs, binds := 0, 0
		ast.WalkStatement(q, func(e ast.Expr) {
			if c, ok := e.(*ast.ColumnRef); ok && c.Column != "*" {
				refs++
			}
		})
		_ = ast.Bind(q, nil, cat, func(c *ast.ColumnRef, b ast.Binding) error {
			binds++
			if b.Block == nil || b.Entry >= len(b.Block.From) || (b.Entry < 0) != (b.Alias != nil) {
				t.Fatalf("%s: %s bound to %+v", sql, c.SQL(), b)
			}
			return nil
		})
		if binds != refs {
			t.Fatalf("%s: %d bindings for %d names", sql, binds, refs)
		}
	})
}
