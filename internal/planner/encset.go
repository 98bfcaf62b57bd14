package planner

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/enc"
	"repro/internal/value"
)

// EncSet extraction (§6.2 step 1): for every operation in a query, the
// ⟨value, scheme⟩ items that would let it run on the server. Items are
// grouped into *units* (§6.3): a unit's items are useful only all together
// — an OPE column for half of an OR clause cannot avoid fetching the whole
// table — so both the designer and the runtime planner enumerate subsets at
// unit granularity instead of the full power set of items.
//
// A predicate's items come from running REWRITESERVER itself (rewrite.go)
// against the candidate design; candidateValue and candidateSum below *are*
// that design: the item each value or aggregate would be encrypted as.

// Unit is one independently-toggleable group of encrypted items.
type Unit struct {
	ID    string
	Items []enc.Item
}

// ExtractUnits computes the query's units. The query must be prepared
// (parameters bound, constants folded, AVG lowered, derived tables
// flattened).
func (ctx *Context) ExtractUnits(q *ast.Query) ([]Unit, error) {
	s, err := ctx.newScope(q)
	if err != nil {
		return nil, err
	}
	var units []Unit
	add := func(id string, items []enc.Item, ok bool) {
		if ok && len(items) > 0 {
			units = append(units, Unit{ID: id, Items: dedupItems(items)})
		}
	}

	// WHERE conjuncts: one unit each (top-level conjunctions are separate
	// units; anything inside an OR lives or dies as a whole).
	for i, c := range ast.Conjuncts(q.Where) {
		items, ok := ctx.predEncSet(s, c)
		add(fmt.Sprintf("where:%d", i), items, ok)
		// Subqueries inside the conjunct contribute their own units
		// (their fetch filters benefit even when the conjunct itself
		// stays on the client).
		for _, sub := range ast.Subqueries(c) {
			subUnits, err := ctx.extractSubqueryUnits(sub, s, fmt.Sprintf("where:%d", i))
			if err != nil {
				return nil, err
			}
			units = append(units, subUnits...)
		}
	}

	// GROUP BY unit: DET for every key.
	keys, ok := ctx.candidateKeys(s, q.GroupBy)
	add("groupby", keys, ok)

	// Aggregates.
	aggs := queryAggregates(q)
	var homItems, opeItems, detItems []enc.Item
	homOK := len(aggs.sums) > 0
	for _, a := range aggs.sums {
		items, ok := ctx.candidateSum(s, a)
		if !ok {
			homOK = false
			break
		}
		homItems = append(homItems, items...)
	}
	add("agg:hom", homItems, homOK)
	for _, a := range aggs.minmax {
		if it, ok := ctx.candidateValue(s, a.Arg, enc.OPE); ok {
			opeItems = append(opeItems, it)
		}
	}
	add("agg:ope", opeItems, len(opeItems) > 0)
	// DET precomputations of aggregate arguments enable GROUP_CONCAT
	// (client-side aggregation) for compound arguments.
	for _, a := range aggs.sums {
		arg := sumArgExpr(a)
		if _, isCol := arg.(*ast.ColumnRef); isCol {
			continue // base columns have baseline DET already
		}
		if it, ok := ctx.candidateValue(s, arg, enc.DET); ok {
			detItems = append(detItems, it)
		}
	}
	add("agg:det", detItems, len(detItems) > 0)

	// Pre-filter unit (§5.4): HAVING SUM(e) > const wants an OPE of e.
	if e, ok := prefilterTarget(q); ok {
		if it, pok := ctx.candidateValue(s, e, enc.OPE); pok {
			add("prefilter", []enc.Item{it}, true)
		}
	}
	return units, nil
}

// extractSubqueryUnits recurses into an expression subquery: its own WHERE
// conjuncts form units (pushable into the sub-fetch or the server-side
// EXISTS), qualified by the parent unit id.
func (ctx *Context) extractSubqueryUnits(sub *ast.Query, outer *scope, prefix string) ([]Unit, error) {
	inner, err := ctx.newScope(sub)
	if err != nil {
		return nil, err
	}
	s := inner.chain(outer)
	var units []Unit
	for i, c := range ast.Conjuncts(sub.Where) {
		if items, ok := ctx.predEncSet(s, c); ok && len(items) > 0 {
			units = append(units, Unit{ID: fmt.Sprintf("%s/sub:%d", prefix, i), Items: dedupItems(items)})
		}
		for _, nested := range ast.Subqueries(c) {
			nu, err := ctx.extractSubqueryUnits(nested, s, fmt.Sprintf("%s/sub:%d", prefix, i))
			if err != nil {
				return nil, err
			}
			units = append(units, nu...)
		}
	}
	// Aggregated scalar subqueries benefit from HOM of their sum args.
	var homItems []enc.Item
	ok := false
	for _, a := range queryAggregates(sub).sums {
		if items, sok := ctx.candidateSum(s, a); sok {
			homItems = append(homItems, items...)
			ok = true
		}
	}
	if ok {
		units = append(units, Unit{ID: prefix + "/sub:hom", Items: dedupItems(homItems)})
	}
	// Grouped subqueries with HAVING SUM(e) > const want the §5.4
	// pre-filter's OPE item (Q18's IN-subquery is the paper's showcase).
	if e, pok := prefilterTarget(sub); pok {
		if it, cok := ctx.candidateValue(s, e, enc.OPE); cok {
			units = append(units, Unit{ID: prefix + "/sub:prefilter", Items: []enc.Item{it}})
		}
	}
	// DET items of the subquery's group keys let its GROUP BY run on the
	// server when the subquery is planned as an independent query.
	if keys, kok := ctx.candidateKeys(s, sub.GroupBy); kok && len(keys) > 0 {
		units = append(units, Unit{ID: prefix + "/sub:groupby", Items: dedupItems(keys)})
	}
	return units, nil
}

// candidateKeys proposes a DET item for every GROUP BY key.
func (ctx *Context) candidateKeys(s *scope, keys []ast.Expr) ([]enc.Item, bool) {
	var items []enc.Item
	for _, k := range keys {
		it, ok := ctx.candidateValue(s, k, enc.DET)
		if !ok {
			return nil, false
		}
		items = append(items, it)
	}
	return items, true
}

// aggSet partitions a query's aggregates.
type aggSet struct {
	sums   []*ast.AggExpr // SUM (AVG already lowered)
	minmax []*ast.AggExpr
	counts []*ast.AggExpr
}

// queryAggregates collects the aggregates of a query block.
func queryAggregates(q *ast.Query) aggSet {
	var out aggSet
	seen := make(map[string]bool)
	collect := func(e ast.Expr) {
		for _, a := range ast.Aggregates(e) {
			if seen[a.SQL()] {
				continue
			}
			seen[a.SQL()] = true
			switch a.Func {
			case ast.AggSum:
				out.sums = append(out.sums, a)
			case ast.AggMin, ast.AggMax:
				out.minmax = append(out.minmax, a)
			case ast.AggCount, ast.AggAvg:
				out.counts = append(out.counts, a)
			}
		}
	}
	for _, p := range q.Projections {
		collect(p.Expr)
	}
	if q.Having != nil {
		collect(q.Having)
	}
	for _, o := range q.OrderBy {
		collect(o.Expr)
	}
	return out
}

// sumArgExpr unwraps SUM(CASE WHEN p THEN e ELSE 0 END) to e; otherwise
// returns the argument itself.
func sumArgExpr(a *ast.AggExpr) ast.Expr {
	if c, _ := caseSumShape(a.Arg); c != nil {
		return c
	}
	return a.Arg
}

// caseSumShape matches CASE WHEN p THEN e [ELSE 0] END, returning (e, p).
func caseSumShape(arg ast.Expr) (ast.Expr, ast.Expr) {
	c, ok := arg.(*ast.CaseExpr)
	if !ok || len(c.Whens) != 1 {
		return nil, nil
	}
	if c.Else != nil {
		l, ok := c.Else.(*ast.Literal)
		if !ok || l.Val.AsInt() != 0 {
			return nil, nil
		}
	}
	return c.Whens[0].Then, c.Whens[0].Cond
}

// candidateSum returns the items that let SUM(arg) run under grouped
// homomorphic addition: a HOM item of the (unwrapped) argument plus, for
// conditional sums, the predicate's items.
func (ctx *Context) candidateSum(s *scope, a *ast.AggExpr) ([]enc.Item, bool) {
	arg := a.Arg
	var items []enc.Item
	if e, p := caseSumShape(arg); e != nil {
		predItems, ok := ctx.predEncSet(s, p)
		if !ok {
			return nil, false
		}
		items = append(items, predItems...)
		arg = e
	}
	if lit, ok := arg.(*ast.Literal); ok && lit.Val.IsNumeric() {
		return items, true // constant summand: predicate items suffice
	}
	it, ok := ctx.candidateValue(s, arg, enc.HOM)
	if !ok {
		return nil, false
	}
	return append(items, it), true
}

// prefilterTarget matches HAVING SUM(e) > const (possibly const is a scalar
// subquery that the client computes first), the §5.4 pre-filtering shape.
func prefilterTarget(q *ast.Query) (ast.Expr, bool) {
	if q.Having == nil || len(q.GroupBy) == 0 {
		return nil, false
	}
	b, ok := q.Having.(*ast.BinaryExpr)
	if !ok || (b.Op != ast.OpGt && b.Op != ast.OpGe) {
		return nil, false
	}
	sum, ok := b.Left.(*ast.AggExpr)
	if !ok || sum.Func != ast.AggSum || sum.Arg == nil {
		return nil, false
	}
	switch b.Right.(type) {
	case *ast.Literal, *ast.SubqueryExpr, *ast.Param:
		return sum.Arg, true
	}
	return nil, false
}

// candidateValue proposes the item that would encrypt a value expression
// under the given scheme (creating precomputed-expression items for
// compound single-table expressions).
func (ctx *Context) candidateValue(s *scope, e ast.Expr, scheme enc.Scheme) (enc.Item, bool) {
	entry := s.singleEntry(e)
	if entry == nil {
		return enc.Item{}, false
	}
	kind := ctx.inferKind(s, e)
	switch scheme {
	case enc.OPE, enc.HOM:
		if kind != value.Int && kind != value.Date {
			return enc.Item{}, false
		}
		// Packed Paillier plaintexts hold non-negative integers only;
		// columns with negative values (c_acctbal) cannot be HOM items.
		if scheme == enc.HOM {
			if cr, ok := e.(*ast.ColumnRef); ok {
				if ctx.Stats.Table(entry.table).Col(cr.Column).Min < 0 {
					return enc.Item{}, false
				}
			}
		}
	case enc.SEARCH:
		if kind != value.Str {
			return enc.Item{}, false
		}
	}
	it := enc.Item{
		Table:     entry.table,
		Expr:      stripQualifiers(e),
		Scheme:    scheme,
		PlainKind: kind,
	}
	if scheme == enc.DET {
		if cr, ok := it.Expr.(*ast.ColumnRef); ok {
			if g, ok := ctx.joinGroup(entry.table, cr.Column); ok {
				it.JoinGroup = g
			}
		}
	}
	return it, true
}

// predEncSet is a predicate's EncSet: the items REWRITESERVER uses to make
// it server-evaluable when every candidate item exists.
func (ctx *Context) predEncSet(s *scope, e ast.Expr) ([]enc.Item, bool) {
	_, used, ok := rewriter{ctx: ctx, candidate: true}.rewritePred(s, e)
	return derefItems(used), ok
}

func derefItems(ptrs []*enc.Item) []enc.Item {
	out := make([]enc.Item, len(ptrs))
	for i, it := range ptrs {
		out[i] = *it
	}
	return out
}

// inferKind derives the plaintext kind of an expression.
func (ctx *Context) inferKind(s *scope, e ast.Expr) value.Kind {
	switch x := e.(type) {
	case *ast.ColumnRef:
		return s.kindOfChained(x)
	case *ast.Literal:
		return x.Val.K
	case *ast.BinaryExpr:
		if x.Op.IsComparison() || x.Op == ast.OpAnd || x.Op == ast.OpOr {
			return value.Bool
		}
		if x.Op == ast.OpDiv {
			return value.Float
		}
		lk := ctx.inferKind(s, x.Left)
		rk := ctx.inferKind(s, x.Right)
		if lk == value.Float || rk == value.Float {
			return value.Float
		}
		return value.Int
	case *ast.UnaryExpr:
		if x.Neg {
			return ctx.inferKind(s, x.E)
		}
		return value.Bool
	case *ast.FuncCall:
		switch x.Name {
		case "extract_year", "extract_month", "extract_day":
			return value.Int
		case "substring":
			return value.Str
		}
		return value.Int
	case *ast.CaseExpr:
		return ctx.inferKind(s, x.Whens[0].Then)
	case *ast.BetweenExpr, *ast.LikeExpr, *ast.IsNullExpr, *ast.InExpr, *ast.ExistsExpr:
		return value.Bool
	case *ast.AggExpr:
		if x.Func == ast.AggCount {
			return value.Int
		}
		if x.Arg != nil {
			return ctx.inferKind(s, x.Arg)
		}
		return value.Int
	}
	return value.Int
}

// kindOfChained resolves a column kind walking outer scopes.
func (s *scope) kindOfChained(c *ast.ColumnRef) value.Kind {
	for cur := s; cur != nil; cur = cur.parent {
		if k := cur.kindOf(c); k != value.Null {
			return k
		}
	}
	return value.Null
}

// joinGroup looks up the registered join group for table.col.
func (ctx *Context) joinGroup(table, col string) (string, bool) {
	g, ok := ctx.JoinGroups[table+"."+col]
	return g, ok
}

// dedupItems removes duplicate items (by identity key).
func dedupItems(items []enc.Item) []enc.Item {
	seen := make(map[string]bool, len(items))
	var out []enc.Item
	for _, it := range items {
		k := it.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, it)
		}
	}
	return out
}
