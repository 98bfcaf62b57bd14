package planner

import (
	"fmt"
	"math"

	"repro/internal/ast"
	"repro/internal/enc"
	"repro/internal/value"
)

// genServerGrouped builds the plan when GROUP BY executes on the server
// (Algorithm 1 lines 14-26): the RemoteSQL groups by DET keys and computes
// each aggregate's server representation; the client decrypts one row per
// group and applies HAVING/ORDER BY/LIMIT locally.
func (g *genState) genServerGrouped(plan *Plan, s *scope, q *ast.Query, remoteFrom []ast.TableRef, pushed []ast.Expr, sums []*sumRep) (*Plan, error) {
	ctx := g.ctx
	remote := ast.NewQuery()
	remote.From = remoteFrom
	remote.Where = ast.AndAll(pushed)

	part := &RemotePart{Name: g.tempName(), Query: remote}
	mapping := make(map[string]string) // plaintext expr SQL -> temp column

	// Group keys.
	for i, k := range q.GroupBy {
		sv, it, ok := ctx.rewriteValue(s, k, enc.DET)
		if !ok {
			return nil, fmt.Errorf("planner: group key %s lost its DET form", k.SQL())
		}
		g.note(it)
		name := fmt.Sprintf("k%d", i)
		remote.GroupBy = append(remote.GroupBy, sv)
		remote.Projections = append(remote.Projections, ast.SelectItem{Expr: sv.Clone(), Alias: name})
		part.Outputs = append(part.Outputs, Output{Name: name, Mode: OutDecrypt, Item: it, Kind: it.PlainKind})
		mapping[k.SQL()] = name
	}

	// Aggregates.
	aggs := queryAggregates(q)
	nAgg := 0
	addOut := func(srcSQL string, proj ast.Expr, out Output) {
		out.Name = fmt.Sprintf("a%d", nAgg)
		nAgg++
		remote.Projections = append(remote.Projections, ast.SelectItem{Expr: proj, Alias: out.Name})
		part.Outputs = append(part.Outputs, out)
		mapping[srcSQL] = out.Name
	}

	for i, a := range aggs.sums {
		rep := sums[i]
		switch rep.mode {
		case OutPlain:
			// Constant summand: the server sums literals guarded by the
			// rewritten predicate.
			summand := rep.arg.Clone()
			if rep.cond != nil {
				summand = &ast.CaseExpr{
					Whens: []ast.CaseWhen{{Cond: rep.cond, Then: summand}},
					Else:  &ast.Literal{Val: value.NewInt(0)},
				}
			}
			addOut(a.SQL(), &ast.AggExpr{Func: ast.AggSum, Arg: summand}, Output{Mode: OutPlain, Kind: value.Int})
		case OutHomSum:
			rowID := ast.Expr(&ast.ColumnRef{Table: rep.entryRef, Column: enc.RowIDColumn})
			if rep.cond != nil {
				rowID = &ast.CaseExpr{
					Whens: []ast.CaseWhen{{Cond: rep.cond, Then: rowID}},
					Else:  &ast.Literal{Val: value.NewNull()},
				}
			}
			homExpr := stripQualifiers(rep.arg).SQL()
			call := &ast.FuncCall{Name: "paillier_sum", Args: []ast.Expr{
				&ast.Literal{Val: value.NewStr(homPlaceholder(rep.homTable, homExpr))},
				rowID,
			}}
			addOut(a.SQL(), call, Output{
				Mode: OutHomSum, HomTable: rep.homTable, HomExpr: homExpr, Kind: value.Int,
			})
		case OutConcatAgg:
			arg := rep.encArg
			if rep.cond != nil {
				arg = &ast.CaseExpr{
					Whens: []ast.CaseWhen{{Cond: rep.cond, Then: arg}},
					Else:  &ast.Literal{Val: RejectedRow},
				}
			}
			call := &ast.FuncCall{Name: "group_concat", Args: []ast.Expr{arg}}
			addOut(a.SQL(), call, Output{
				Mode: OutConcatAgg, Item: rep.item, Agg: ast.AggSum, Conditional: rep.cond != nil, Kind: rep.item.PlainKind,
			})
		}
	}

	for _, a := range aggs.minmax {
		if sv, it, ok := ctx.rewriteValue(s, a.Arg, enc.OPE); ok {
			g.note(it)
			addOut(a.SQL(), &ast.AggExpr{Func: a.Func, Arg: sv}, Output{
				Mode: OutDecrypt, Item: it, Kind: it.PlainKind,
			})
			continue
		}
		sv, it, ok := ctx.rewriteValue(s, a.Arg, enc.DET, enc.RND)
		if !ok {
			return nil, fmt.Errorf("planner: min/max %s lost its form", a.SQL())
		}
		g.note(it)
		addOut(a.SQL(), &ast.FuncCall{Name: "group_concat", Args: []ast.Expr{sv}}, Output{
			Mode: OutConcatAgg, Item: it, Agg: a.Func, Kind: it.PlainKind,
		})
	}

	for _, a := range aggs.counts {
		switch {
		case a.Star:
			addOut(a.SQL(), &ast.AggExpr{Func: ast.AggCount, Star: true}, Output{Mode: OutPlain, Kind: value.Int})
		case a.Distinct:
			sv, it, ok := ctx.rewriteValue(s, a.Arg, enc.DET)
			if !ok {
				return nil, fmt.Errorf("planner: count distinct %s lost its form", a.SQL())
			}
			g.note(it)
			addOut(a.SQL(), &ast.AggExpr{Func: ast.AggCount, Arg: sv, Distinct: true}, Output{Mode: OutPlain, Kind: value.Int})
		default:
			sv, it, ok := ctx.rewriteValue(s, a.Arg, anySchemes...)
			if !ok {
				return nil, fmt.Errorf("planner: count %s lost its form", a.SQL())
			}
			g.note(it)
			addOut(a.SQL(), &ast.AggExpr{Func: ast.AggCount, Arg: sv}, Output{Mode: OutPlain, Kind: value.Int})
		}
	}

	// Conservative pre-filtering (§5.4): HAVING SUM(e) > const becomes a
	// server-side superset filter MAX(e_ope) > Enc(m) OR COUNT(*) > c/m.
	if e, ok := prefilterTarget(q); ok && ctx.EnablePrefilter {
		if lit, isLit := q.Having.(*ast.BinaryExpr).Right.(*ast.Literal); isLit && lit.Val.IsNumeric() {
			if sv, it, pok := ctx.rewriteValue(s, e, enc.OPE); pok {
				m := g.prefilterM(s, e)
				if m > 0 {
					encM, eok := ctx.encConst(it, value.NewInt(m), "")
					if eok {
						if lit.Src != "" {
							// The count threshold below derives from the HAVING
							// literal's value; a template could not recompute it
							// by re-encrypting parameters alone.
							plan.NoCache = true
						}
						g.note(it)
						// A qualifying group either has a value above m, or
						// its count must exceed c/m (sum <= count*m); floor
						// keeps the integer comparison conservative.
						threshold := int64(math.Floor(lit.Val.AsFloat() / float64(m)))
						remote.Having = &ast.BinaryExpr{
							Op: ast.OpOr,
							Left: &ast.BinaryExpr{
								Op: ast.OpGt, Left: &ast.AggExpr{Func: ast.AggMax, Arg: sv}, Right: encM,
							},
							Right: &ast.BinaryExpr{
								Op: ast.OpGt, Left: &ast.AggExpr{Func: ast.AggCount, Star: true},
								Right: &ast.Literal{Val: value.NewInt(threshold)},
							},
						}
						plan.Prefilter = true
					}
				}
			}
		}
	}

	plan.Remote = part

	// Local residual: HAVING (exact), projections, ORDER BY, LIMIT.
	local := ast.NewQuery()
	local.From = []ast.TableRef{{Name: part.Name}}
	local.Distinct = q.Distinct
	local.Limit = q.Limit
	for _, p := range q.Projections {
		local.Projections = append(local.Projections, ast.SelectItem{
			Expr: substituteMapped(p.Expr, mapping), Alias: p.Alias,
		})
	}
	if q.Having != nil {
		h := substituteMapped(q.Having, mapping)
		h, err := g.localize(plan, h, s, nil)
		if err != nil {
			return nil, err
		}
		local.Where = h
	}
	for _, o := range q.OrderBy {
		local.OrderBy = append(local.OrderBy, ast.OrderItem{Expr: substituteMapped(o.Expr, mapping), Desc: o.Desc})
	}
	// Hoist localized-subquery subplans built for HAVING.
	plan.Local = local
	if err := unshadow(local); err != nil {
		return nil, err
	}
	return plan, nil
}

// homPlaceholder is the group-name placeholder the client resolves against
// the encrypted DB's metadata before sending the RemoteSQL.
func homPlaceholder(table, exprSQL string) string { return "@hom:" + table + ":" + exprSQL }

// ParseHomPlaceholder inverts homPlaceholder.
func ParseHomPlaceholder(s string) (table, exprSQL string, ok bool) {
	const prefix = "@hom:"
	if len(s) < len(prefix) || s[:len(prefix)] != prefix {
		return "", "", false
	}
	rest := s[len(prefix):]
	for i := 0; i < len(rest); i++ {
		if rest[i] == ':' {
			return rest[:i], rest[i+1:], true
		}
	}
	return "", "", false
}

// prefilterM estimates m, the per-row maximum of e (§5.4 uses the column's
// max collected during setup).
func (g *genState) prefilterM(s *scope, e ast.Expr) int64 {
	entry := singleEntry(s, e)
	if entry == nil {
		return 0
	}
	if cr, ok := e.(*ast.ColumnRef); ok {
		return g.ctx.Stats.Table(entry.Name).Col(cr.Column).Max
	}
	return 0
}

// substituteMapped replaces (top-down) any subexpression whose SQL is in
// the mapping with a reference to the corresponding temp column.
func substituteMapped(e ast.Expr, mapping map[string]string) ast.Expr {
	if e == nil {
		return nil
	}
	if name, ok := mapping[e.SQL()]; ok {
		return &ast.ColumnRef{Column: name}
	}
	// Clone-with-substituted-children via RewriteExpr is bottom-up, which
	// would miss parent matches; recurse manually top-down instead.
	switch x := e.(type) {
	case *ast.BinaryExpr:
		return &ast.BinaryExpr{Op: x.Op, Left: substituteMapped(x.Left, mapping), Right: substituteMapped(x.Right, mapping)}
	case *ast.UnaryExpr:
		return &ast.UnaryExpr{Neg: x.Neg, E: substituteMapped(x.E, mapping)}
	case *ast.FuncCall:
		n := &ast.FuncCall{Name: x.Name}
		for _, a := range x.Args {
			n.Args = append(n.Args, substituteMapped(a, mapping))
		}
		return n
	case *ast.CaseExpr:
		n := &ast.CaseExpr{}
		for _, w := range x.Whens {
			n.Whens = append(n.Whens, ast.CaseWhen{Cond: substituteMapped(w.Cond, mapping), Then: substituteMapped(w.Then, mapping)})
		}
		if x.Else != nil {
			n.Else = substituteMapped(x.Else, mapping)
		}
		return n
	case *ast.BetweenExpr:
		return &ast.BetweenExpr{E: substituteMapped(x.E, mapping), Lo: substituteMapped(x.Lo, mapping), Hi: substituteMapped(x.Hi, mapping), Not: x.Not}
	case *ast.InExpr:
		n := &ast.InExpr{E: substituteMapped(x.E, mapping), Sub: x.Sub, Not: x.Not}
		for _, l := range x.List {
			n.List = append(n.List, substituteMapped(l, mapping))
		}
		return n
	case *ast.IsNullExpr:
		return &ast.IsNullExpr{E: substituteMapped(x.E, mapping), Not: x.Not}
	}
	return e.Clone()
}
