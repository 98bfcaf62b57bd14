package planner

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/enc"
)

// Plan generation — GENERATEQUERYPLAN (Algorithm 1). Given a prepared
// query and a (trial) design, build the split execution plan:
//
//   - every WHERE conjunct that REWRITESERVER can translate moves into the
//     RemoteSQL query; the rest stay in the client-side residual query and
//     force their referenced columns into the fetch list (lines 6-13);
//   - GROUP BY moves to the server when every key has a DET encryption and
//     every aggregate has a server representation — PAILLIER_SUM, a
//     server-side MIN/MAX over OPE, COUNT, or GROUP_CONCAT with a
//     client-side fold (lines 14-31);
//   - otherwise the server returns filtered raw rows and the client
//     groups/aggregates locally;
//   - subqueries that cannot be pushed are fetched by their own sub-plans
//     and evaluated in the residual query (the recursion of line 2 /
//     Figure 3's second RemoteSQL branch).

// genState carries naming counters through one plan generation.
type genState struct {
	ctx   *Context
	nTemp int
	used  *enc.Design // items actually used (BestSet accumulator)
}

func (g *genState) tempName() string {
	n := fmt.Sprintf("r%d", g.nTemp)
	g.nTemp++
	return n
}

// note records that an item was used by the plan.
func (g *genState) note(items ...*enc.Item) {
	for _, it := range items {
		if it != nil {
			g.used.Add(*it)
		}
	}
}

// Generate builds a plan for a prepared query against ctx.Design.
func (ctx *Context) Generate(q *ast.Query) (*Plan, error) {
	g := &genState{ctx: ctx, used: &enc.Design{}}
	plan, err := g.genQuery(q)
	if err != nil {
		return nil, err
	}
	plan.UsedItems = g.used.Items
	return plan, nil
}

// genQuery plans one query block.
func (g *genState) genQuery(q *ast.Query) (*Plan, error) {
	ctx := g.ctx
	s, err := ctx.newScope(q, nil)
	if err != nil {
		return nil, err
	}

	// Derived tables that survived flattening (grouped subqueries like
	// Q17's avg-per-part) become subplans; their aliases resolve locally.
	plan := &Plan{}
	var remoteFrom, temps []ast.TableRef
	for i := range q.From {
		f := &q.From[i]
		if f.Sub == nil {
			remoteFrom = append(remoteFrom, ast.TableRef{Name: f.Name, Alias: f.RefName()})
			continue
		}
		sub, err := g.genQuery(f.Sub)
		if err != nil {
			return nil, err
		}
		name := g.tempName()
		plan.Subplans = append(plan.Subplans, &Subplan{Name: name, Plan: sub})
		temps = append(temps, ast.TableRef{Name: name, Alias: f.RefName()})
	}

	// Classify WHERE conjuncts: those REWRITESERVER translates move to the
	// server; the rest (anything over a derived table, unpushable
	// subqueries) stay in the residual.
	var pushed, local []ast.Expr
	for _, c := range ast.Conjuncts(q.Where) {
		if sc, items, ok := ctx.rewritePred(s, c); ok {
			pushed = append(pushed, sc)
			g.note(items...)
			continue
		}
		local = append(local, c)
	}

	// Decide server vs. client grouping.
	if hasAnyAggregate(q) && len(local) == 0 && len(temps) == 0 {
		if sums, ok := g.canServerGroup(s, q); ok {
			return g.genServerGrouped(plan, s, q, remoteFrom, pushed, sums)
		}
	}
	return g.genClientResidual(plan, s, q, remoteFrom, pushed, local, temps)
}

// hasAnyAggregate reports whether the query needs an aggregation phase.
func hasAnyAggregate(q *ast.Query) bool {
	for _, p := range q.Projections {
		if ast.HasAggregate(p.Expr) {
			return true
		}
	}
	for _, o := range q.OrderBy {
		if ast.HasAggregate(o.Expr) {
			return true
		}
	}
	return q.Having != nil || len(q.GroupBy) > 0
}

// canServerGroup checks Algorithm 1's lines 14-21: every GROUP BY key has
// a DET form and every aggregate has a server representation. It returns
// the representations chosen for the query's SUMs, in queryAggregates order.
func (g *genState) canServerGroup(s *scope, q *ast.Query) ([]*sumRep, bool) {
	ctx := g.ctx
	for _, k := range q.GroupBy {
		if _, _, ok := ctx.rewriteValue(s, k, enc.DET); !ok {
			return nil, false
		}
	}
	aggs := queryAggregates(q)
	var sums []*sumRep
	for _, a := range aggs.sums {
		rep, ok := g.sumRepresentation(s, a)
		if !ok {
			return nil, false
		}
		sums = append(sums, rep)
	}
	for _, a := range aggs.minmax {
		if _, _, ok := ctx.rewriteValue(s, a.Arg, enc.OPE); !ok {
			// MIN/MAX can also ride GROUP_CONCAT if a decryptable form
			// exists.
			if _, _, ok := ctx.rewriteValue(s, a.Arg, anySchemes...); !ok {
				return nil, false
			}
		}
	}
	for _, a := range aggs.counts {
		if a.Star {
			continue
		}
		if a.Distinct {
			if _, _, ok := ctx.rewriteValue(s, a.Arg, enc.DET); !ok {
				return nil, false
			}
			continue
		}
		if _, _, ok := ctx.rewriteValue(s, a.Arg, anySchemes...); !ok {
			return nil, false
		}
	}
	// Non-aggregate projection/having/order expressions must be functions
	// of the group keys.
	keySQL := make(map[string]bool)
	for _, k := range q.GroupBy {
		keySQL[k.SQL()] = true
	}
	for _, e := range clauseExprs(q, nil) {
		if !coveredByKeys(e, keySQL) {
			return nil, false
		}
	}
	return sums, true
}

// coveredByKeys reports whether every column reference in e sits beneath a
// group key or inside an aggregate.
func coveredByKeys(e ast.Expr, keySQL map[string]bool) bool {
	if e == nil {
		return true
	}
	if keySQL[e.SQL()] {
		return true
	}
	switch x := e.(type) {
	case *ast.ColumnRef:
		return false
	case *ast.AggExpr:
		return true
	case *ast.SubqueryExpr, *ast.ExistsExpr:
		return true // subqueries are evaluated locally with their own scope
	case *ast.InExpr:
		if !coveredByKeys(x.E, keySQL) {
			return false
		}
		for _, l := range x.List {
			if !coveredByKeys(l, keySQL) {
				return false
			}
		}
		return true
	}
	ok := true
	ast.VisitChildren(e, func(c ast.Expr) {
		if !coveredByKeys(c, keySQL) {
			ok = false
		}
	})
	return ok
}

// sumRep describes how one SUM aggregate runs on the server.
type sumRep struct {
	mode     OutputMode // OutHomSum, OutConcatAgg, or OutPlain (const sums)
	arg      ast.Expr   // unwrapped argument (single-table expression)
	cond     ast.Expr   // optional rewritten condition (conditional sums)
	item     *enc.Item  // HOM item (homsum) or decryptable item (concat)
	encArg   ast.Expr   // concat: the argument's encrypted column
	homTable string
	entryRef string // FROM alias owning the argument
}

// sumRepresentation chooses the server form of SUM(a): grouped homomorphic
// addition when a HOM item is available; GROUP_CONCAT of a decryptable
// encryption otherwise; and plain server arithmetic for constant summands
// (SUM(CASE WHEN p THEN 1 ELSE 0 END) is a conditional count — the count
// is no more revealing than COUNT(*)). The items it reads are noted as they
// are chosen, also when the block then falls back to client grouping.
func (g *genState) sumRepresentation(s *scope, a *ast.AggExpr) (*sumRep, bool) {
	ctx := g.ctx
	rep := &sumRep{mode: OutPlain, arg: a.Arg}
	if e, p := caseSumShape(a.Arg); e != nil {
		cond, items, ok := ctx.rewritePred(s, p)
		if !ok {
			return nil, false
		}
		g.note(items...)
		rep.cond, rep.arg = cond, e
	}
	if lit, ok := rep.arg.(*ast.Literal); ok && lit.Val.IsNumeric() {
		return rep, true
	}
	entry := singleEntry(s, rep.arg)
	if entry == nil {
		return nil, false
	}
	rep.entryRef = entry.RefName()
	if it, ok := ctx.findItem(entry.Name, rep.arg, enc.HOM); ok {
		rep.mode, rep.item, rep.homTable = OutHomSum, it, entry.Name
	} else if sv, it, ok := ctx.rewriteValue(s, rep.arg, enc.DET, enc.RND); ok {
		rep.mode, rep.item, rep.encArg = OutConcatAgg, it, sv
	} else {
		return nil, false
	}
	g.note(rep.item)
	return rep, true
}
