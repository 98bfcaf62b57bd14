package ast

import (
	"testing"

	"repro/internal/value"
)

func col(name string) *ColumnRef { return &ColumnRef{Column: name} }
func lit(i int64) *Literal       { return &Literal{Val: value.NewInt(i)} }

func TestConjunctsAndAndAll(t *testing.T) {
	a := &BinaryExpr{Op: OpEq, Left: col("a"), Right: lit(1)}
	b := &BinaryExpr{Op: OpGt, Left: col("b"), Right: lit(2)}
	c := &BinaryExpr{Op: OpLt, Left: col("c"), Right: lit(3)}
	conj := AndAll([]Expr{a, b, c})
	parts := Conjuncts(conj)
	if len(parts) != 3 {
		t.Fatalf("conjuncts = %d", len(parts))
	}
	if parts[0] != a || parts[2] != c {
		t.Error("order must be preserved")
	}
	if Conjuncts(nil) != nil {
		t.Error("nil predicate has no conjuncts")
	}
	if AndAll(nil) != nil {
		t.Error("empty AndAll is nil")
	}
	if AndAll([]Expr{nil, a, nil}) != a {
		t.Error("single non-nil collapses")
	}
	// OR is not split.
	or := &BinaryExpr{Op: OpOr, Left: a, Right: b}
	if len(Conjuncts(or)) != 1 {
		t.Error("OR must stay one conjunct")
	}
}

func TestWalkAndColumns(t *testing.T) {
	e := &BinaryExpr{
		Op:   OpAnd,
		Left: &BinaryExpr{Op: OpEq, Left: col("x"), Right: col("y")},
		Right: &InExpr{
			E:    col("z"),
			List: []Expr{lit(1), lit(2)},
		},
	}
	cols := Columns(e)
	if len(cols) != 3 {
		t.Fatalf("columns = %d", len(cols))
	}
	n := 0
	Walk(e, func(Expr) { n++ })
	if n < 7 {
		t.Errorf("walk visited %d nodes", n)
	}
}

func TestSubqueriesNotDescended(t *testing.T) {
	sub := NewQuery()
	sub.Projections = []SelectItem{{Expr: col("inner")}}
	sub.From = []TableRef{{Name: "t"}}
	e := &ExistsExpr{Sub: sub}
	if len(Columns(e)) != 0 {
		t.Error("Columns must not descend into subqueries")
	}
	if len(Subqueries(e)) != 1 {
		t.Error("Subqueries must find the EXISTS body")
	}
	if !HasSubquery(e) || HasSubquery(col("x")) {
		t.Error("HasSubquery")
	}
}

// TestWalkStatementReachesEveryClause: one column per clause, at three
// nesting depths (a derived table, a subquery in WHERE, a subquery inside
// that one's HAVING), and every one is visited.
func TestWalkStatementReachesEveryClause(t *testing.T) {
	deep := NewQuery()
	deep.Projections = []SelectItem{{Expr: col("deep_sel")}}
	deep.From = []TableRef{{Name: "u"}}
	sub := NewQuery()
	sub.Projections = []SelectItem{{Expr: col("sub_sel")}}
	sub.From = []TableRef{{Name: "t"}}
	sub.Having = &BinaryExpr{Op: OpGt, Left: &AggExpr{Func: AggSum, Arg: col("sub_agg")}, Right: &SubqueryExpr{Sub: deep}}
	derived := NewQuery()
	derived.Projections = []SelectItem{{Expr: col("derived_sel"), Alias: "d"}}
	derived.From = []TableRef{{Name: "v"}}
	derived.Where = &IsNullExpr{E: col("derived_where")}
	q := NewQuery()
	q.Projections = []SelectItem{{Expr: &CaseExpr{Whens: []CaseWhen{{Cond: col("sel_when"), Then: lit(1)}}, Else: col("sel_else")}}}
	q.From = []TableRef{{Name: "t"}, {Sub: derived, Alias: "x"}}
	q.Where = &BinaryExpr{Op: OpAnd,
		Left:  &InExpr{E: col("in_lhs"), Sub: sub},
		Right: &BetweenExpr{E: col("where"), Lo: lit(1), Hi: lit(2)}}
	q.GroupBy = []Expr{col("group")}
	q.Having = &LikeExpr{E: col("having"), Pattern: "a%"}
	q.OrderBy = []OrderItem{{Expr: &FuncCall{Name: "f", Args: []Expr{col("order")}}}}

	seen := map[string]bool{}
	WalkStatement(q, func(e Expr) {
		if c, ok := e.(*ColumnRef); ok {
			seen[c.Column] = true
		}
	})
	for _, want := range []string{"deep_sel", "sub_sel", "sub_agg", "derived_sel", "derived_where",
		"sel_when", "sel_else", "in_lhs", "where", "group", "having", "order"} {
		if !seen[want] {
			t.Errorf("WalkStatement never visited column %s", want)
		}
	}
	if len(seen) != 12 {
		t.Errorf("visited %d distinct columns, want 12: %v", len(seen), seen)
	}
}

func TestAggregateDetection(t *testing.T) {
	agg := &AggExpr{Func: AggSum, Arg: col("v")}
	e := &BinaryExpr{Op: OpGt, Left: agg, Right: lit(10)}
	if !HasAggregate(e) {
		t.Error("aggregate inside comparison")
	}
	if HasAggregate(col("v")) {
		t.Error("plain column is not an aggregate")
	}
	if len(Aggregates(e)) != 1 {
		t.Error("Aggregates count")
	}
}

func TestRewriteExprBottomUp(t *testing.T) {
	e := &BinaryExpr{Op: OpAdd, Left: col("x"), Right: &BinaryExpr{Op: OpMul, Left: col("x"), Right: lit(2)}}
	out := RewriteExpr(e, func(x Expr) Expr {
		if c, ok := x.(*ColumnRef); ok && c.Column == "x" {
			return col("y")
		}
		return nil
	})
	if len(Columns(out)) != 2 {
		t.Fatal("rewrite lost columns")
	}
	for _, c := range Columns(out) {
		if c.Column != "y" {
			t.Errorf("column %q not rewritten", c.Column)
		}
	}
	// Original untouched.
	if Columns(e)[0].Column != "x" {
		t.Error("rewrite must not mutate the input")
	}
}

func TestQuerySQLRendering(t *testing.T) {
	q := NewQuery()
	q.Projections = []SelectItem{{Expr: &AggExpr{Func: AggSum, Arg: col("v")}, Alias: "s"}}
	q.From = []TableRef{{Name: "t", Alias: "x"}}
	q.Where = &BetweenExpr{E: col("d"), Lo: lit(1), Hi: lit(9)}
	q.GroupBy = []Expr{col("k")}
	q.Having = &BinaryExpr{Op: OpGt, Left: &AggExpr{Func: AggSum, Arg: col("v")}, Right: lit(5)}
	q.OrderBy = []OrderItem{{Expr: col("s"), Desc: true}}
	q.Limit = 7
	sql := q.SQL()
	for _, want := range []string{"SELECT SUM(v) AS s", "FROM t x", "BETWEEN 1 AND 9",
		"GROUP BY k", "HAVING", "ORDER BY s DESC", "LIMIT 7"} {
		if !contains(sql, want) {
			t.Errorf("SQL %q missing %q", sql, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestLiteralSQLQuoting(t *testing.T) {
	l := &Literal{Val: value.NewStr("O'Brien")}
	if l.SQL() != "'O''Brien'" {
		t.Errorf("quoted = %s", l.SQL())
	}
	d := &Literal{Val: value.NewDate(value.MustParseDate("1994-01-01"))}
	if d.SQL() != "date '1994-01-01'" {
		t.Errorf("date literal = %s", d.SQL())
	}
}

func TestTableRefName(t *testing.T) {
	r := TableRef{Name: "orders"}
	if r.RefName() != "orders" {
		t.Error("base name")
	}
	r.Alias = "o"
	if r.RefName() != "o" {
		t.Error("alias wins")
	}
}

func TestBinOpPredicates(t *testing.T) {
	if !OpEq.IsComparison() || !OpGe.IsComparison() || OpAdd.IsComparison() {
		t.Error("IsComparison")
	}
	if !OpMul.IsArith() || OpLt.IsArith() {
		t.Error("IsArith")
	}
}
