package planner

import (
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/value"
)

// Preparation passes run before planning:
//
//  1. bind query parameters to literal values (the runtime planner plans
//     per-execution, so parameter values are known — the paper's planner
//     likewise sees the concrete query),
//  2. fold constant arithmetic (date '1994-01-01' + interval '1' year
//     becomes a date literal the rewriter can encrypt),
//  3. rewrite AVG(x) into SUM(x)/COUNT(*) so a HOM sum plus a plain count
//     covers averages,
//  4. flatten simple derived tables (the SELECT-only wrappers TPC-H Q7/8/9
//     use) into the parent query, and name the bare columns of those that
//     stay,
//  5. inline SELECT-list aliases that HAVING and ORDER BY name.
//
// Passes 1–3 rewrite every clause of every block once (ast.RewriteStatement);
// pass 5 rewrites each block's own HAVING and ORDER BY (ast.EachBlock); pass
// 4 touches only the references that provably name the derived table it
// removes (flattenDerived).

// Prepare applies all passes, returning a transformed clone.
func Prepare(q *ast.Query, params map[string]value.Value) (*ast.Query, error) {
	out, _, err := PrepareTagged(q, params)
	return out, err
}

// BoundSlot records one parameter occurrence bound by PrepareTagged: Tag is
// the unique provenance tag stamped on the bound literal (Literal.Src),
// Param the parameter it was bound from. A plan template is sound for a
// query shape only if every bound occurrence survives planning as a
// rebindable site — the template coverage check (template.go) verifies each
// Tag against this list.
type BoundSlot struct {
	Tag   string
	Param string
}

// PrepareTagged is Prepare with plan-cache provenance: every literal bound
// from a parameter carries a unique per-occurrence Src tag, and the full
// occurrence list is returned for the template coverage check.
func PrepareTagged(q *ast.Query, params map[string]value.Value) (*ast.Query, []BoundSlot, error) {
	out := q.Clone()
	slots, err := bindParams(out, params)
	if err != nil {
		return nil, nil, err
	}
	ast.RewriteStatement(out, foldConstant)
	ast.RewriteStatement(out, lowerAvg)
	if err := flattenDerived(out); err != nil {
		return nil, nil, err
	}
	nameDerivedColumns(out)
	resolveAliases(out)
	return out, slots, nil
}

// nameDerivedColumns aliases every bare column a surviving derived table
// projects by its name (SELECT s_id → SELECT s_id AS s_id), so the subplan
// that runs it emits the column under the name its enclosing block uses
// rather than under a temp column's.
func nameDerivedColumns(q *ast.Query) {
	ast.EachBlock(q, func(b, _ *ast.Query) {
		for _, f := range b.From {
			if f.Sub == nil {
				continue
			}
			for i, p := range f.Sub.Projections {
				if cr, ok := p.Expr.(*ast.ColumnRef); ok && p.Alias == "" {
					f.Sub.Projections[i].Alias = cr.Column
				}
			}
		}
	})
}

// resolveAliases inlines SELECT-list aliases referenced from HAVING and
// ORDER BY (e.g. ORDER BY revenue DESC), so the planner reasons about the
// underlying expressions: each block's own aliases, in its own HAVING and
// ORDER BY.
func resolveAliases(q *ast.Query) {
	ast.EachBlock(q, func(b, _ *ast.Query) {
		var aliases map[string]ast.Expr
		for _, p := range b.Projections {
			if p.Alias == "" {
				continue
			}
			if cr, ok := p.Expr.(*ast.ColumnRef); ok && cr.Column == p.Alias {
				continue
			}
			if aliases == nil {
				aliases = make(map[string]ast.Expr)
			}
			aliases[p.Alias] = p.Expr
		}
		if aliases == nil {
			return
		}
		subst := func(x ast.Expr) ast.Expr {
			if cr, ok := x.(*ast.ColumnRef); ok && cr.Table == "" {
				if repl, ok := aliases[cr.Column]; ok {
					return repl.Clone()
				}
			}
			return nil
		}
		b.Having = ast.RewriteExpr(b.Having, subst)
		for i := range b.OrderBy {
			b.OrderBy[i].Expr = ast.RewriteExpr(b.OrderBy[i].Expr, subst)
		}
	})
}

// bindParams replaces Param nodes with literal values, stamping each bound
// literal with a unique per-occurrence provenance tag (Literal.Src). A
// parameter used at two syntactic sites yields two distinct tags, so the
// template coverage check can tell "every occurrence survived" from "one
// copy survived, another was folded into an untagged constant".
func bindParams(q *ast.Query, params map[string]value.Value) ([]BoundSlot, error) {
	var missing error
	var slots []BoundSlot
	ast.RewriteStatement(q, func(x ast.Expr) ast.Expr {
		if p, ok := x.(*ast.Param); ok {
			if v, ok := params[p.Name]; ok {
				tag := p.Name + "\x00" + fmt.Sprint(len(slots))
				slots = append(slots, BoundSlot{Tag: tag, Param: p.Name})
				return &ast.Literal{Val: v, Src: tag}
			}
			if missing == nil {
				missing = fmt.Errorf("planner: unbound parameter :%s", p.Name)
			}
		}
		return nil
	})
	return slots, missing
}

// foldConstant evaluates one constant node whose operands are already
// folded (ast.RewriteExpr works bottom-up).
func foldConstant(x ast.Expr) ast.Expr {
	switch n := x.(type) {
	case *ast.BinaryExpr:
		// date ± interval with a literal date folds to a date literal.
		if iv, ok := n.Right.(*ast.IntervalExpr); ok && (n.Op == ast.OpAdd || n.Op == ast.OpSub) {
			if l, ok := n.Left.(*ast.Literal); ok && (l.Val.K == value.Date || l.Val.K == value.Int) {
				k := iv.N
				if n.Op == ast.OpSub {
					k = -k
				}
				return &ast.Literal{Val: value.NewDate(value.AddInterval(l.Val.AsInt(), k, iv.Unit))}
			}
			return nil
		}
		l, lok := n.Left.(*ast.Literal)
		r, rok := n.Right.(*ast.Literal)
		if !lok || !rok {
			return nil
		}
		switch n.Op {
		case ast.OpAdd:
			return &ast.Literal{Val: value.Add(l.Val, r.Val)}
		case ast.OpSub:
			return &ast.Literal{Val: value.Sub(l.Val, r.Val)}
		case ast.OpMul:
			return &ast.Literal{Val: value.Mul(l.Val, r.Val)}
		case ast.OpDiv:
			return &ast.Literal{Val: value.Div(l.Val, r.Val)}
		}
		return nil
	case *ast.UnaryExpr:
		if !n.Neg {
			return nil
		}
		if l, ok := n.E.(*ast.Literal); ok {
			return &ast.Literal{Val: value.Neg(l.Val)}
		}
	}
	return nil
}

// lowerAvg lowers AVG(x) to SUM(x)/COUNT(*). Valid on NULL-free data
// (TPC-H); it lets the planner cover averages with a HOM sum and a plain
// count.
func lowerAvg(x ast.Expr) ast.Expr {
	if a, ok := x.(*ast.AggExpr); ok && a.Func == ast.AggAvg && !a.Distinct {
		return &ast.BinaryExpr{
			Op:    ast.OpDiv,
			Left:  &ast.AggExpr{Func: ast.AggSum, Arg: a.Arg},
			Right: &ast.AggExpr{Func: ast.AggCount, Star: true},
		}
	}
	return nil
}

// flattenDerived merges a simple derived table (projection/join/filter
// only) that is its parent's only FROM entry — the SELECT-only wrappers of
// TPC-H Q7/8/9/22 — into the parent: each reference to one of its output
// columns becomes the projection expression it names, and its FROM and
// WHERE become the parent's. Prepare has no catalog, so it replaces only
// references that provably name the derived table: unqualified and
// alias-qualified ones in the parent's own clauses, and alias-qualified ones
// in the blocks nested in them unless a block on the way re-binds the alias
// — never anything inside the derived block. flatSites refuses what it
// cannot prove, and the planner runs the derived table as a subplan.
func flattenDerived(q *ast.Query) error {
	if len(q.From) != 1 || q.From[0].Sub == nil || !flattenable(q.From[0].Sub) {
		return nil
	}
	sub, alias, sole := q.From[0].Sub, q.From[0].RefName(), ""
	if len(sub.From) == 1 {
		sole = sub.From[0].RefName()
	}
	cols := make(map[string]ast.Expr, len(sub.Projections))
	for _, p := range sub.Projections {
		name := p.Alias
		if name == "" {
			cr, ok := p.Expr.(*ast.ColumnRef)
			if !ok {
				return fmt.Errorf("planner: derived table %s has unnamed projection %s", alias, p.Expr.SQL())
			}
			name = cr.Column
		}
		cols[name] = p.Expr
	}
	sites, ok := flatSites(q, cols, sole)
	if !ok {
		return nil
	}
	q.RewriteExprs(func(x ast.Expr) ast.Expr {
		if cr, ok := x.(*ast.ColumnRef); ok && (cr.Table == "" || cr.Table == alias) {
			if e, ok := cols[cr.Column]; ok {
				return e.Clone()
			}
		}
		return nil
	})
	for _, b := range sites {
		b.RewriteExprs(func(x ast.Expr) ast.Expr {
			if cr, ok := x.(*ast.ColumnRef); ok && cr.Table == alias {
				if e, ok := cols[cr.Column]; ok {
					return qualify(e, sole)
				}
			}
			return nil
		})
	}
	q.From = sub.From
	q.Where = ast.AndAll([]ast.Expr{q.Where, sub.Where})
	return nil
}

// flatSites decides whether q's derived table, with output columns cols and
// only FROM name sole ("" when it has several), can be flattened, and
// returns the blocks nested in q's clauses whose alias-qualified references
// to it flattening rewrites. It refuses when q's own clauses name `*`, when
// a nested block names an output column unqualified (it may be that block's
// own column), and when an expression substituted into a nested block could
// be captured there: it holds a subquery, an unqualified column of a
// multi-table derived table, or a qualifier that a block on the way binds
// again.
func flatSites(q *ast.Query, cols map[string]ast.Expr, sole string) (sites []*ast.Query, ok bool) {
	sub, alias := q.From[0].Sub, q.From[0].RefName()
	ok = true
	q.EachExpr(func(e ast.Expr) {
		ast.Walk(e, func(x ast.Expr) {
			if cr, isCol := x.(*ast.ColumnRef); isCol && cr.Column == "*" {
				ok = false
			}
		})
	})
	// bound maps q and every block nested in its clauses to the FROM names
	// the nested blocks down to it bind.
	bound := map[*ast.Query][]string{q: nil}
	ast.EachBlock(q, func(b, up *ast.Query) {
		outer, visible := bound[up]
		if !ok || !visible || b == sub {
			return
		}
		names := slices.Clip(outer)
		for _, f := range b.From {
			names = append(names, f.RefName())
		}
		bound[b] = names
		shadowed := slices.Contains(names, alias)
		site := false
		b.EachExpr(func(e ast.Expr) {
			ast.Walk(e, func(x ast.Expr) {
				cr, isCol := x.(*ast.ColumnRef)
				if !isCol {
					return
				}
				repl, isOut := cols[cr.Column]
				switch {
				case !isOut || (cr.Table != "" && (cr.Table != alias || shadowed)):
				case cr.Table == "" || capturable(repl, sole, names):
					ok = false
				default:
					site = true
				}
			})
		})
		if site {
			sites = append(sites, b)
		}
	})
	return sites, ok
}

// capturable reports whether e, substituted into a block where the FROM
// names in bound are in scope, might resolve differently than in the derived
// table it came from. Unqualified columns count as qualified by sole.
func capturable(e ast.Expr, sole string, bound []string) bool {
	if ast.HasSubquery(e) {
		return true
	}
	for _, c := range ast.Columns(e) {
		t := c.Table
		if t == "" {
			t = sole
		}
		if t == "" || slices.Contains(bound, t) {
			return true
		}
	}
	return false
}

// qualify clones e with its unqualified columns qualified by ref.
func qualify(e ast.Expr, ref string) ast.Expr {
	return ast.RewriteExpr(e.Clone(), func(x ast.Expr) ast.Expr {
		if c, ok := x.(*ast.ColumnRef); ok && c.Table == "" {
			return &ast.ColumnRef{Table: ref, Column: c.Column}
		}
		return nil
	})
}

// flattenable reports whether a derived table is a pure
// select/project/join block that names its output columns.
func flattenable(sub *ast.Query) bool {
	if len(sub.GroupBy) > 0 || sub.Having != nil || sub.Distinct ||
		sub.Limit >= 0 || len(sub.OrderBy) > 0 {
		return false
	}
	for _, p := range sub.Projections {
		if cr, ok := p.Expr.(*ast.ColumnRef); (ok && cr.Column == "*") || ast.HasAggregate(p.Expr) {
			return false
		}
	}
	for _, f := range sub.From {
		if f.Sub != nil {
			return false
		}
	}
	return true
}
