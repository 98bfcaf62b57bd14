package planner

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/enc"
)

// The client-side half of Algorithm 1 (lines 27-44): whatever REWRITESERVER
// could not move to the server runs in a residual query over decrypted temp
// tables. Three pieces, each written once and shared by the main block and
// by every locally-evaluated subquery: fetch adds one decryptable column to
// a RemoteSQL part, localize rewrites an expression to read temp columns,
// and localQuery rebuilds a block clause by clause with it.

// genClientResidual builds the plan when part of the query must run on the
// client: the RemoteSQL fetches the (filtered, joined) encrypted rows the
// residual needs, and the client decrypts them and runs the rest of the
// query — local filters, grouping, HAVING, ORDER BY — over the temp tables.
// temps are the derived tables' subplan results, in FROM order.
func (g *genState) genClientResidual(plan *Plan, s *scope, q *ast.Query,
	remoteFrom []ast.TableRef, pushed, local []ast.Expr, temps []ast.TableRef) (*Plan, error) {

	// Base-table entries reach the residual through the main fetch.
	fetched := make(map[*scopeEntry]bool)
	for i := range s.entries {
		if s.entries[i].table != "" {
			fetched[&s.entries[i]] = true
		}
	}

	// A query over only derived tables (all subplans) has no main fetch.
	from := temps
	if len(remoteFrom) > 0 {
		// Main RemoteSQL: join + pushed filters, projecting the columns
		// the residual reads.
		remote := ast.NewQuery()
		remote.From = remoteFrom
		remote.Where = ast.AndAll(pushed)
		part := &RemotePart{Name: g.tempName(), Query: remote}
		var cols [][2]string // (ref, col)
		for en, m := range neededCols(g.ctx, s, fetched, clauseExprs(q, local)) {
			for col := range m {
				cols = append(cols, [2]string{en.ref, col})
			}
		}
		sort.Slice(cols, func(i, j int) bool {
			return cols[i][0]+"__"+cols[i][1] < cols[j][0]+"__"+cols[j][1]
		})
		for _, c := range cols {
			if err := g.fetch(part, s, c[0], c[1]); err != nil {
				return nil, err
			}
		}
		if len(remote.Projections) == 0 {
			// Residual references no main columns (e.g. SELECT COUNT(*)
			// with all filters pushed): fetch some column so rows can be
			// counted.
			err := fmt.Errorf("planner: residual plan needs at least one fetched column")
			for i := 0; i < len(s.entries) && err != nil; i++ {
				if en := &s.entries[i]; fetched[en] && len(en.info.Cols) > 0 {
					err = g.fetch(part, s, en.ref, en.info.Cols[0].Name)
				}
			}
			if err != nil {
				return nil, err
			}
		}
		plan.Remote = part
		from = append([]ast.TableRef{{Name: part.Name}}, temps...)
	}

	var err error
	plan.Local, err = g.localQuery(plan, q, local, from, s, fetched)
	return plan, err
}

// fetch projects ref.col from a RemoteSQL part under whichever decryptable
// encryption the design has; it arrives in the temp table as ref__col.
func (g *genState) fetch(part *RemotePart, s *scope, ref, col string) error {
	sv, it, ok := g.ctx.rewriteValue(s, &ast.ColumnRef{Table: ref, Column: col}, anySchemes...)
	if !ok {
		return fmt.Errorf("planner: no decryptable encryption of %s.%s", ref, col)
	}
	g.note(it)
	name := ref + "__" + col
	part.Query.Projections = append(part.Query.Projections, ast.SelectItem{Expr: sv, Alias: name})
	part.Outputs = append(part.Outputs, Output{Name: name, Mode: OutDecrypt, Item: it, Kind: it.PlainKind})
	return nil
}

// clauseExprs lists the expressions of a query block, with where standing
// in for its WHERE conjuncts.
func clauseExprs(q *ast.Query, where []ast.Expr) []ast.Expr {
	var out []ast.Expr
	for _, p := range q.Projections {
		out = append(out, p.Expr)
	}
	out = append(out, where...)
	out = append(out, q.GroupBy...)
	out = append(out, q.Having)
	for _, o := range q.OrderBy {
		out = append(out, o.Expr)
	}
	return out
}

// neededCols maps each entry of own to those of its columns the expressions
// (nested subqueries included) reference.
func neededCols(ctx *Context, s *scope, own map[*scopeEntry]bool, exprs []ast.Expr) map[*scopeEntry]map[string]bool {
	out := make(map[*scopeEntry]map[string]bool)
	for _, e := range exprs {
		collectRefs(ctx, e, s, func(en *scopeEntry, col string) {
			if !own[en] {
				return
			}
			if out[en] == nil {
				out[en] = make(map[string]bool)
			}
			out[en][col] = true
		})
	}
	return out
}

// collectRefs reports every column reference of an expression, subqueries
// included, with its resolved entry — nil for a reference that resolves
// nowhere in the scope chain.
func collectRefs(ctx *Context, e ast.Expr, s *scope, fn func(*scopeEntry, string)) {
	blockRefs(e, s, fn)
	for _, sub := range ast.Subqueries(e) {
		collectQueryRefs(ctx, sub, s, fn)
	}
}

// collectQueryRefs reports every column reference of every block of q, each
// resolved through the block's scope chained over its enclosing blocks'
// (outer for q). A FROM list that does not resolve reports one unresolved
// reference.
func collectQueryRefs(ctx *Context, q *ast.Query, outer *scope, fn func(*scopeEntry, string)) {
	ctx.blockScopes(q, outer, func(b *ast.Query, s *scope) {
		if s == nil {
			fn(nil, "")
			return
		}
		b.EachExpr(func(e ast.Expr) { blockRefs(e, s, fn) })
	})
}

// blockRefs reports the column references of e outside its subqueries.
func blockRefs(e ast.Expr, s *scope, fn func(*scopeEntry, string)) {
	ast.Walk(e, func(x ast.Expr) {
		c, ok := x.(*ast.ColumnRef)
		if !ok || c.Column == "*" {
			return
		}
		entry, ok := s.entryFor(c)
		if !ok {
			entry = nil
		}
		fn(entry, c.Column)
	})
}

// localize rewrites an expression for the residual query: a column of an
// entry in fetched reads its `ref__col` temp column, and subqueries are
// localized (their base tables replaced by sub-fetch temps).
func (g *genState) localize(plan *Plan, e ast.Expr, s *scope, fetched map[*scopeEntry]bool) (ast.Expr, error) {
	var err error
	sub := func(q *ast.Query) *ast.Query {
		if err != nil {
			return nil
		}
		var out *ast.Query
		out, err = g.localizeSub(plan, q, s, fetched)
		return out
	}
	out := ast.RewriteExpr(e, func(x ast.Expr) ast.Expr {
		switch c := x.(type) {
		case *ast.ColumnRef:
			if entry, ok := s.entryFor(c); ok && fetched[entry] {
				return &ast.ColumnRef{Column: entry.ref + "__" + c.Column}
			}
		case *ast.SubqueryExpr:
			return &ast.SubqueryExpr{Sub: sub(c.Sub)}
		case *ast.ExistsExpr:
			return &ast.ExistsExpr{Sub: sub(c.Sub), Not: c.Not}
		case *ast.InExpr:
			if c.Sub != nil {
				return &ast.InExpr{E: c.E, List: c.List, Sub: sub(c.Sub), Not: c.Not}
			}
		}
		return nil
	})
	return out, err
}

// localQuery builds the client-side form of block q over the temp tables in
// from: every clause localized, with where (the conjuncts that did not move
// to a server) as its WHERE.
func (g *genState) localQuery(plan *Plan, q *ast.Query, where []ast.Expr, from []ast.TableRef,
	s *scope, fetched map[*scopeEntry]bool) (*ast.Query, error) {

	var err error
	loc := func(e ast.Expr) ast.Expr {
		if err != nil {
			return nil
		}
		var out ast.Expr
		out, err = g.localize(plan, e, s, fetched)
		return out
	}
	lq := ast.NewQuery()
	lq.From = from
	lq.Distinct = q.Distinct
	lq.Limit = q.Limit
	for _, p := range q.Projections {
		lq.Projections = append(lq.Projections, ast.SelectItem{Expr: loc(p.Expr), Alias: p.Alias})
	}
	kept := make([]ast.Expr, len(where))
	for i, c := range where {
		kept[i] = loc(c)
	}
	lq.Where = ast.AndAll(kept)
	for _, k := range q.GroupBy {
		lq.GroupBy = append(lq.GroupBy, loc(k))
	}
	lq.Having = loc(q.Having)
	for _, o := range q.OrderBy {
		lq.OrderBy = append(lq.OrderBy, ast.OrderItem{Expr: loc(o.Expr), Desc: o.Desc})
	}
	return lq, err
}

// localizeSub plans the client-side evaluation of one subquery: its base
// tables are fetched by sub-plans (with the server applying every
// non-correlated predicate it can), and the subquery is rewritten to run
// over the temp tables. outerFetched are the enclosing blocks' entries that
// already live in temp tables (correlated references read those).
func (g *genState) localizeSub(plan *Plan, sub *ast.Query, outer *scope, outerFetched map[*scopeEntry]bool) (*ast.Query, error) {
	ctx := g.ctx

	// An uncorrelated subquery is an independent query: recurse the whole
	// of Algorithm 1 on it, so it gets its own split plan — server-side
	// grouping, PAILLIER_SUM, and §5.4 pre-filtering included. This is how
	// Q18's IN-subquery keeps its aggregation on the server.
	if IsUncorrelated(ctx, sub) && hasAnyAggregate(sub) {
		if subPlan, err := g.genQuery(sub); err == nil {
			name := g.tempName()
			plan.Subplans = append(plan.Subplans, &Subplan{Name: name, Plan: subPlan})
			out := ast.NewQuery()
			out.From = []ast.TableRef{{Name: name}}
			for _, col := range planOutputCols(subPlan) {
				out.Projections = append(out.Projections, ast.SelectItem{Expr: &ast.ColumnRef{Column: col}})
			}
			return out, nil
		}
	}

	inner, err := ctx.newScope(sub)
	if err != nil {
		return nil, err
	}
	chained := inner.chain(outer)
	fetched := make(map[*scopeEntry]bool, len(outerFetched)+len(inner.entries))
	for en := range outerFetched {
		fetched[en] = true
	}
	own := make(map[*scopeEntry]bool, len(inner.entries))
	for i := range inner.entries {
		// Nested derived tables inside locally-evaluated subqueries stay
		// rare (TPC-H has none after flattening).
		if inner.entries[i].table == "" {
			return nil, fmt.Errorf("planner: derived table inside local subquery %s unsupported", inner.entries[i].ref)
		}
		own[&inner.entries[i]], fetched[&inner.entries[i]] = true, true
	}

	// Run REWRITESERVER once per conjunct over the subquery's own tables
	// (unchained scope: a correlated reference fails to resolve).
	type conjunct struct {
		orig, server ast.Expr // server is nil when the rewrite failed
		items        []*enc.Item
	}
	var conjs []conjunct
	// One fetch carries the subquery's join unless a conjunct the server
	// cannot evaluate joins two of its own tables; then every table ships
	// separately and the joins run locally.
	joint := true
	for _, c := range ast.Conjuncts(sub.Where) {
		cj := conjunct{orig: c}
		if !ast.HasSubquery(c) {
			cj.server, cj.items, _ = ctx.rewritePred(inner, c)
		}
		if cj.server == nil && len(neededCols(ctx, chained, own, []ast.Expr{c})) >= 2 {
			joint = false
		}
		conjs = append(conjs, cj)
	}

	var groups [][]*scopeEntry // the tables of each fetch
	for i := range inner.entries {
		if en := &inner.entries[i]; joint && i > 0 {
			groups[0] = append(groups[0], en)
		} else {
			groups = append(groups, []*scopeEntry{en})
		}
	}

	// Partition the conjuncts: pushed into a fetch (the joint fetch takes
	// every rewritten one, a per-table fetch those over its table alone)
	// vs. kept for the local query (correlated, unrewritable, or a join
	// between separately shipped tables). pushedTo is keyed by a fetch's
	// first table.
	pushedTo := make(map[*scopeEntry][]ast.Expr)
	var kept []ast.Expr
	for _, cj := range conjs {
		target := inner.singleEntry(cj.orig)
		if joint && len(groups) > 0 {
			target = groups[0][0]
		}
		if cj.server == nil || target == nil {
			kept = append(kept, cj.orig)
			continue
		}
		pushedTo[target] = append(pushedTo[target], cj.server)
		g.note(cj.items...)
	}

	// Build the fetch(es), each projecting the columns of its tables that
	// the local evaluation reads.
	needed := neededCols(ctx, chained, own, clauseExprs(sub, kept))
	var from []ast.TableRef
	for _, grp := range groups {
		remote := ast.NewQuery()
		remote.Where = ast.AndAll(pushedTo[grp[0]])
		part := &RemotePart{Name: g.tempName(), Query: remote}
		for _, en := range grp {
			remote.From = append(remote.From, ast.TableRef{Name: en.table, Alias: en.ref})
			for _, col := range sortedKeys(needed[en]) {
				if err := g.fetch(part, inner, en.ref, col); err != nil {
					return nil, err
				}
			}
		}
		if len(remote.Projections) == 0 {
			// EXISTS(SELECT 1 ...) needs at least one column to count rows.
			if err := g.fetch(part, inner, grp[0].ref, grp[0].info.Cols[0].Name); err != nil {
				return nil, err
			}
		}
		plan.Subplans = append(plan.Subplans, &Subplan{Name: part.Name, Plan: &Plan{Remote: part}})
		ref := ast.TableRef{Name: part.Name}
		if !joint {
			ref.Alias = grp[0].ref + "_f"
		}
		from = append(from, ref)
	}

	// Rewrite the subquery body over the temp table(s): fetched refs, its
	// own and the enclosing blocks', take their ref__col names, and nested
	// subqueries localize recursively.
	return g.localQuery(plan, sub, kept, from, chained, fetched)
}

// planOutputCols derives the output column names of a completed plan.
func planOutputCols(p *Plan) []string {
	if p.Local != nil {
		var out []string
		for _, pr := range p.Local.Projections {
			name := pr.Alias
			if name == "" {
				if cr, ok := pr.Expr.(*ast.ColumnRef); ok {
					name = cr.Column
				} else {
					name = pr.Expr.SQL()
				}
			}
			out = append(out, name)
		}
		return out
	}
	var out []string
	if p.Remote != nil {
		for _, o := range p.Remote.Outputs {
			out = append(out, o.Name)
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
