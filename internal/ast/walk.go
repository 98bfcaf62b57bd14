package ast

// Traversal and structural utilities used by the engine and the planner.
// Walk, RewriteExpr, EachExpr and RewriteExprs stay inside one block.
// EachBlock is the one whole-statement walk (every block once, parents
// first); WalkStatement, RewriteStatement and every whole-statement pass are
// built on it rather than on a recursion of their own.

// VisitChildren calls fn on each direct child expression of e. Subqueries
// are not descended into; callers that care use Subqueries.
func VisitChildren(e Expr, fn func(Expr)) {
	switch x := e.(type) {
	case *BinaryExpr:
		fn(x.Left)
		fn(x.Right)
	case *UnaryExpr:
		fn(x.E)
	case *FuncCall:
		for _, a := range x.Args {
			fn(a)
		}
	case *AggExpr:
		if x.Arg != nil {
			fn(x.Arg)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			fn(w.Cond)
			fn(w.Then)
		}
		if x.Else != nil {
			fn(x.Else)
		}
	case *InExpr:
		fn(x.E)
		for _, l := range x.List {
			fn(l)
		}
	case *SubqueryExpr, *ExistsExpr:
		// children live in the subquery
	case *BetweenExpr:
		fn(x.E)
		fn(x.Lo)
		fn(x.Hi)
	case *LikeExpr:
		fn(x.E)
	case *IsNullExpr:
		fn(x.E)
	}
}

// Walk applies fn to e and every descendant expression (pre-order),
// not descending into subqueries.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	VisitChildren(e, func(c Expr) { Walk(c, fn) })
}

// EachExpr calls fn on the root expression of every clause of this block —
// SELECT list, WHERE, GROUP BY, HAVING, ORDER BY, in that order — and of no
// other block: FROM's derived tables and the subqueries the clauses name are
// their own blocks.
func (q *Query) EachExpr(fn func(Expr)) {
	for _, p := range q.Projections {
		fn(p.Expr)
	}
	if q.Where != nil {
		fn(q.Where)
	}
	for _, g := range q.GroupBy {
		fn(g)
	}
	if q.Having != nil {
		fn(q.Having)
	}
	for _, o := range q.OrderBy {
		fn(o.Expr)
	}
}

// RewriteExprs replaces the root expression of every clause of this block
// with RewriteExpr(root, fn), in place — the clauses EachExpr visits, and no
// other block's.
func (q *Query) RewriteExprs(fn func(Expr) Expr) {
	for i := range q.Projections {
		q.Projections[i].Expr = RewriteExpr(q.Projections[i].Expr, fn)
	}
	q.Where = RewriteExpr(q.Where, fn)
	for i := range q.GroupBy {
		q.GroupBy[i] = RewriteExpr(q.GroupBy[i], fn)
	}
	q.Having = RewriteExpr(q.Having, fn)
	for i := range q.OrderBy {
		q.OrderBy[i].Expr = RewriteExpr(q.OrderBy[i].Expr, fn)
	}
}

// EachBlock calls fn once for every block of the statement q, parents
// first and depth first: q (enclosing nil), then its derived tables, then the
// IN / EXISTS / scalar subqueries of its SELECT list, WHERE, GROUP BY, HAVING
// and ORDER BY at any expression depth, each with the block holding it. A
// block's nested blocks are looked up after fn returns, so fn may rewrite the
// block's clauses in place (RewriteExpr keeps subquery pointers).
func EachBlock(q *Query, fn func(block, enclosing *Query)) {
	eachBlock(q, nil, fn)
}

func eachBlock(q, enclosing *Query, fn func(block, enclosing *Query)) {
	fn(q, enclosing)
	for i := range q.From {
		if sub := q.From[i].Sub; sub != nil {
			eachBlock(sub, q, fn)
		}
	}
	q.EachExpr(func(e Expr) {
		Walk(e, func(x Expr) {
			if sub := subquery(x); sub != nil {
				eachBlock(sub, q, fn)
			}
		})
	})
}

// subquery returns the block an IN / EXISTS / scalar subquery node holds, or
// nil for any other node.
func subquery(e Expr) *Query {
	switch s := e.(type) {
	case *InExpr:
		return s.Sub
	case *ExistsExpr:
		return s.Sub
	case *SubqueryExpr:
		return s.Sub
	}
	return nil
}

// WalkStatement applies fn to every expression node of the whole statement
// q: each clause of every block EachBlock yields.
func WalkStatement(q *Query, fn func(Expr)) {
	EachBlock(q, func(b, _ *Query) {
		b.EachExpr(func(e Expr) { Walk(e, fn) })
	})
}

// RewriteStatement applies RewriteExprs(fn) to every block of q, in
// EachBlock order. q is rewritten in place, so the caller must own it (Clone
// a query that is shared).
func RewriteStatement(q *Query, fn func(Expr) Expr) {
	EachBlock(q, func(b, _ *Query) { b.RewriteExprs(fn) })
}

// Subqueries returns all subqueries directly referenced by e (IN, EXISTS,
// scalar), at any expression depth but without recursing into the
// subqueries themselves.
func Subqueries(e Expr) []*Query {
	var out []*Query
	Walk(e, func(x Expr) {
		if sub := subquery(x); sub != nil {
			out = append(out, sub)
		}
	})
	return out
}

// HasSubquery reports whether e contains any subquery.
func HasSubquery(e Expr) bool { return len(Subqueries(e)) > 0 }

// HasAggregate reports whether e contains an aggregate call (outside
// subqueries).
func HasAggregate(e Expr) bool {
	found := false
	Walk(e, func(x Expr) {
		if _, ok := x.(*AggExpr); ok {
			found = true
		}
	})
	return found
}

// Columns returns every column reference in e (outside subqueries),
// in traversal order with duplicates preserved.
func Columns(e Expr) []*ColumnRef {
	var out []*ColumnRef
	Walk(e, func(x Expr) {
		if c, ok := x.(*ColumnRef); ok {
			out = append(out, c)
		}
	})
	return out
}

// Conjuncts splits a predicate into its top-level AND terms. A nil
// predicate yields nil.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(Conjuncts(b.Left), Conjuncts(b.Right)...)
	}
	return []Expr{e}
}

// AndAll combines predicates into a conjunction; nil for an empty slice.
func AndAll(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: OpAnd, Left: out, Right: e}
		}
	}
	return out
}

// Aggregates returns all aggregate expressions in e (outside subqueries).
func Aggregates(e Expr) []*AggExpr {
	var out []*AggExpr
	Walk(e, func(x Expr) {
		if a, ok := x.(*AggExpr); ok {
			out = append(out, a)
		}
	})
	return out
}

// RewriteExpr rebuilds e bottom-up, replacing each node with fn(node) after
// its children have been rewritten. fn returning nil keeps the node.
// Subqueries are left untouched.
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *BinaryExpr:
		e = &BinaryExpr{Op: x.Op, Left: RewriteExpr(x.Left, fn), Right: RewriteExpr(x.Right, fn)}
	case *UnaryExpr:
		e = &UnaryExpr{Neg: x.Neg, E: RewriteExpr(x.E, fn)}
	case *FuncCall:
		n := &FuncCall{Name: x.Name}
		for _, a := range x.Args {
			n.Args = append(n.Args, RewriteExpr(a, fn))
		}
		e = n
	case *AggExpr:
		n := &AggExpr{Func: x.Func, Star: x.Star, Distinct: x.Distinct}
		if x.Arg != nil {
			n.Arg = RewriteExpr(x.Arg, fn)
		}
		e = n
	case *CaseExpr:
		n := &CaseExpr{}
		for _, w := range x.Whens {
			n.Whens = append(n.Whens, CaseWhen{Cond: RewriteExpr(w.Cond, fn), Then: RewriteExpr(w.Then, fn)})
		}
		if x.Else != nil {
			n.Else = RewriteExpr(x.Else, fn)
		}
		e = n
	case *InExpr:
		n := &InExpr{E: RewriteExpr(x.E, fn), Sub: x.Sub, Not: x.Not}
		for _, l := range x.List {
			n.List = append(n.List, RewriteExpr(l, fn))
		}
		e = n
	case *BetweenExpr:
		e = &BetweenExpr{E: RewriteExpr(x.E, fn), Lo: RewriteExpr(x.Lo, fn), Hi: RewriteExpr(x.Hi, fn), Not: x.Not}
	case *LikeExpr:
		e = &LikeExpr{E: RewriteExpr(x.E, fn), Pattern: x.Pattern, Not: x.Not}
	case *IsNullExpr:
		e = &IsNullExpr{E: RewriteExpr(x.E, fn), Not: x.Not}
	}
	if r := fn(e); r != nil {
		return r
	}
	return e
}
