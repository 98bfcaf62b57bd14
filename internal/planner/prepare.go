package planner

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/storage"
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
// 4 touches only the references the resolver binds to the derived table it
// removes (flattenDerived).

// Prepare applies the passes that need no schema, returning a transformed
// clone: it checks no name and flattens no derived table. It is not the
// product's prepare (Context.Prepare is) and is kept only for the frozen
// benchmark harness's front-end probe, which is to move onto
// Context.Prepare; then this goes.
func Prepare(q *ast.Query, params map[string]value.Value) (*ast.Query, error) {
	out, _, err := prepareTagged(q, params, nil)
	return out, err
}

// Prepare resolves every name of q against the context's tables — an
// unknown or ambiguous one is ast.ErrUnknownColumn / ast.ErrAmbiguousColumn
// before anything is planned or sent — and applies all passes with
// plan-cache provenance (prepareTagged).
func (ctx *Context) Prepare(q *ast.Query, params map[string]value.Value) (*ast.Query, []BoundSlot, error) {
	if err := ast.Resolve(q, ctx.Cat); err != nil {
		return nil, nil, err
	}
	out, slots, err := prepareTagged(q, params, ctx.Cat)
	if err == nil {
		expandStar(out, ctx.Cat)
	}
	return out, slots, err
}

// expandStar spells out a * in the statement's own SELECT list as the
// columns it stands for — every base table's of FROM, in FROM and schema
// order, qualified by the table's FROM name — as the engine's * expands
// them. The planner splits a statement by the columns it names, and a *
// names none. A block reading a derived table keeps its *, as do the
// subqueries (EXISTS (SELECT * …) reads no column).
func expandStar(q *ast.Query, cat *storage.Catalog) {
	var items []ast.SelectItem
	for _, p := range q.Projections {
		if cr, ok := p.Expr.(*ast.ColumnRef); !ok || cr.Column != "*" {
			items = append(items, p)
			continue
		}
		for _, f := range q.From {
			if f.Sub != nil {
				return
			}
			t, err := cat.Table(f.Name)
			if err != nil {
				return
			}
			for _, c := range t.Schema.Cols {
				items = append(items, ast.SelectItem{Expr: &ast.ColumnRef{Table: f.RefName(), Column: c.Name}})
			}
		}
	}
	q.Projections = items
}

// BoundSlot records one parameter occurrence bound by prepareTagged: Tag is
// the unique provenance tag stamped on the bound literal (Literal.Src),
// Param the parameter it was bound from. A plan template is sound for a
// query shape only if every bound occurrence survives planning as a
// rebindable site — the template coverage check (template.go) verifies each
// Tag against this list.
type BoundSlot struct {
	Tag   string
	Param string
}

// prepareTagged is Prepare with plan-cache provenance: every literal bound
// from a parameter carries a unique per-occurrence Src tag, and the full
// occurrence list is returned for the template coverage check.
func prepareTagged(q *ast.Query, params map[string]value.Value, cat ast.Catalog) (*ast.Query, []BoundSlot, error) {
	out := q.Clone()
	slots, err := bindParams(out, params)
	if err != nil {
		return nil, nil, err
	}
	ast.RewriteStatement(out, foldConstant)
	ast.RewriteStatement(out, lowerAvg)
	flattenDerived(out, cat)
	nameDerivedColumns(out)
	if err := resolveAliases(out); err != nil {
		return nil, nil, err
	}
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
// ORDER BY, by the resolver's rule (ast.WithAliases), cloned so no two
// clauses share a node.
func resolveAliases(q *ast.Query) (err error) {
	ast.EachBlock(q, func(b, _ *ast.Query) {
		bound, berr := ast.WithAliases(b)
		if err == nil {
			err = berr
		}
		if bound != b {
			c := bound.Clone()
			b.Having, b.OrderBy = c.Having, c.OrderBy
		}
	})
	return err
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
// TPC-H Q7/8/9/22 — into the parent: every reference the resolver binds to
// one of its outputs becomes the projection expression (qualified by the
// derived table's only FROM name in a nested block), and its FROM and WHERE
// become the parent's. The result is bound again and kept only if each
// substituted column binds to the FROM entry it bound to in the derived
// table; otherwise, and without a catalog, the planner runs the derived
// table as a subplan.
func flattenDerived(q *ast.Query, cat ast.Catalog) {
	if cat == nil || len(q.From) != 1 || q.From[0].Sub == nil || !flattenable(q.From[0].Sub) {
		return
	}
	flat := q.Clone()
	sub, sole := flat.From[0].Sub, ""
	if len(sub.From) == 1 {
		sole = sub.From[0].RefName()
	}
	own := make(map[*ast.ColumnRef]bool) // in the parent's own clauses
	star := false                        // would expand to other columns
	flat.EachExpr(func(e ast.Expr) {
		for _, c := range ast.Columns(e) {
			own[c], star = true, star || c.Column == "*"
		}
	})
	moved := make(map[*ast.ColumnRef]bool) // bound to the derived table
	entry := make(map[*ast.ColumnRef]int)  // bound inside it, to entry
	if star || ast.Bind(flat, nil, cat, func(c *ast.ColumnRef, b ast.Binding) error {
		if b.Block == flat && b.Entry == 0 {
			moved[c] = true
		} else if b.Block == sub {
			entry[c] = b.Entry
		}
		return nil
	}) != nil {
		return
	}
	want := make(map[*ast.ColumnRef]int) // substituted, to bind to entry
	ast.RewriteStatement(flat, func(x ast.Expr) ast.Expr {
		c, ok := x.(*ast.ColumnRef)
		for i := 0; ok && moved[c] && i < len(sub.Projections); i++ {
			if e := sub.Projections[i].Expr; ast.OutputName(sub.Projections[i]) == c.Column {
				repl := e.Clone()
				if !own[c] && sole != "" {
					repl = qualify(e, sole)
				}
				from := ast.Columns(e)
				for j, rc := range ast.Columns(repl) {
					want[rc] = entry[from[j]]
				}
				return repl
			}
		}
		return nil
	})
	flat.From = sub.From
	flat.Where = ast.AndAll([]ast.Expr{flat.Where, sub.Where})
	if ast.Bind(flat, nil, cat, func(c *ast.ColumnRef, b ast.Binding) error {
		if e, ok := want[c]; ok && (b.Block != flat || b.Entry != e) {
			return fmt.Errorf("planner: flattened %s binds elsewhere", c.SQL())
		}
		return nil
	}) == nil {
		*q = *flat
	}
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
// select/project/join block whose outputs are per-row expressions.
func flattenable(sub *ast.Query) bool {
	if len(sub.GroupBy) > 0 || sub.Having != nil || sub.Distinct ||
		sub.Limit >= 0 || len(sub.OrderBy) > 0 {
		return false
	}
	for _, p := range sub.Projections {
		if cr, ok := p.Expr.(*ast.ColumnRef); (ok && cr.Column == "*") || ast.HasAggregate(p.Expr) || ast.HasSubquery(p.Expr) {
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
