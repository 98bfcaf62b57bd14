package engine

import (
	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/value"
)

// pagePred splits the filter f of a paged table's scan, whose rows have the
// given layout, into the page predicate the disk store evaluates on sealed
// pages in place (storage.Pred) and the residual Keep evaluates on the rows
// it is TRUE on. A top-level conjunct joins the predicate when it is an
// AND/OR tree whose every leaf ast.Sargable accepts on a column of the
// layout, with literal or bound-parameter constants (resolved here, once
// per execution). Every other conjunct stays in the residual: NOT, IS NULL,
// LIKE, a function call, a column-to-column comparison, a subquery, an
// outer reference, an OR with a disjunct of those. pred is nil when no
// conjunct qualifies, and when f names a parameter params does not bind:
// Keep then reports it as it does without a page predicate.
//
// Keep on the whole filter and the predicate followed by the residual keep
// the same rows: the predicate's conjuncts are true exactly where storage.Pred
// says so (its doc gives the three-valued argument), and a conjunction keeps
// a row exactly when every conjunct is TRUE on it. Only which rows the
// residual is evaluated on changes: the predicate's survivors.
func pagePred(f ast.Expr, layout *relation, params map[string]value.Value) (pred *storage.Pred, rest ast.Expr) {
	unbound := false
	ast.Walk(f, func(x ast.Expr) {
		if p, ok := x.(*ast.Param); ok {
			if _, ok := params[p.Name]; !ok {
				unbound = true
			}
		}
	})
	if unbound {
		return nil, f
	}
	var kernel []storage.Pred
	var residual []ast.Expr
	for _, e := range ast.Conjuncts(f) {
		if p, ok := compilePred(e, layout, params); ok {
			kernel = append(kernel, p)
		} else {
			residual = append(residual, e)
		}
	}
	if len(kernel) == 0 {
		return nil, f
	}
	p := storage.PredAnd(kernel...)
	return &p, ast.AndAll(residual)
}

// compilePred compiles e to a page predicate when it is an AND/OR tree of
// sargable atoms on the layout's columns.
func compilePred(e ast.Expr, layout *relation, params map[string]value.Value) (storage.Pred, bool) {
	if b, ok := e.(*ast.BinaryExpr); ok && (b.Op == ast.OpAnd || b.Op == ast.OpOr) {
		l, ok := compilePred(b.Left, layout, params)
		if !ok {
			return storage.Pred{}, false
		}
		r, ok := compilePred(b.Right, layout, params)
		if !ok {
			return storage.Pred{}, false
		}
		if b.Op == ast.OpAnd {
			return storage.PredAnd(l, r), true
		}
		return storage.PredOr(l, r), true
	}
	s, ok := ast.Sargable(e)
	if !ok {
		return storage.Pred{}, false
	}
	col, err := layout.indexOf(s.Col.Table, s.Col.Column)
	if err != nil || col < 0 {
		return storage.Pred{}, false // ambiguous, or an outer reference
	}
	konst := func(e ast.Expr) value.Value {
		if l, ok := e.(*ast.Literal); ok {
			return l.Val
		}
		return params[e.(*ast.Param).Name]
	}
	if !s.Range() {
		list := s.In
		if s.Eq != nil {
			list = []ast.Expr{s.Eq}
		}
		in := make([]value.Value, len(list))
		for i, k := range list {
			in[i] = konst(k)
		}
		return storage.PredIn(col, in...), true
	}
	var b [2]*value.Value
	for i, e := range [2]ast.Expr{s.Lo, s.Hi} {
		if e == nil {
			continue
		}
		v := konst(e)
		if v.IsNull() {
			return storage.PredIn(col), true // a NULL bound is never TRUE
		}
		b[i] = &v
	}
	return storage.PredRange(col, b[0], b[1], s.LoIncl, s.HiIncl), true
}
