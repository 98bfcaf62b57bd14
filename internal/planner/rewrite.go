package planner

import (
	"repro/internal/ast"
	"repro/internal/crypto/search"
	"repro/internal/enc"
	"repro/internal/value"
)

// patternWord extracts the keyword of a single-word LIKE pattern.
func patternWord(pattern string) (string, bool) { return search.PatternWord(pattern) }

// REWRITESERVER (Algorithm 1): translate plaintext expressions into
// expressions over the encrypted schema that the untrusted server can
// evaluate, and report the ⟨value, scheme⟩ items the translation used. Two
// modes mirror the paper's enctype argument:
//
//   - rewritePred   (enctype=PLAIN): predicates whose boolean result the
//     server may learn — equality via DET, ranges via OPE, keyword LIKE via
//     SEARCH, and whole single-table comparisons via precomputed DET
//     booleans; EXISTS/IN subqueries recurse.
//   - rewriteValue  (enctype=DET/OPE/ANY): value expressions that must
//     arrive encrypted under a specific scheme (GROUP BY keys need DET;
//     fetched projections accept ANY).
//
// This is the only copy of the algorithm. The planner runs it with the
// design as its item source: a rewrite succeeds only where the needed items
// exist (the unit enumeration toggles them), and the items it returns are
// the plan's BestSet by construction. The designer runs the same traversal
// with the candidate design as its source (§6.2: "run the planner against
// the all-items design"): every item candidateValue can propose exists, so
// the items returned are the predicate's EncSet.

// rewriter is one run of REWRITESERVER over an item source.
type rewriter struct {
	ctx *Context
	// candidate selects the candidate design as the item source. No design
	// or key exists for it yet, so constants stay plaintext, and a scalar
	// subquery operand counts as a constant: the client computes it first
	// and re-plans with the literal substituted (multi-round execution,
	// §8.2's "intermediate results several times").
	candidate bool
}

// rewritePred and rewriteValue run REWRITESERVER against ctx.Design.
func (ctx *Context) rewritePred(s *scope, e ast.Expr) (ast.Expr, []*enc.Item, bool) {
	return rewriter{ctx: ctx}.rewritePred(s, e)
}

func (ctx *Context) rewriteValue(s *scope, e ast.Expr, schemes ...enc.Scheme) (ast.Expr, *enc.Item, bool) {
	return rewriter{ctx: ctx}.rewriteValue(s, e, schemes...)
}

// chain links a scope to an enclosing one for correlated subqueries.
func (s *scope) chain(parent *scope) *scope {
	c := *s
	c.parent = parent
	return &c
}

// entryFor finds the scope entry resolving a column, walking outward.
func (s *scope) entryFor(c *ast.ColumnRef) (*scopeEntry, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if c.Table != "" {
			for i := range cur.entries {
				if cur.entries[i].ref == c.Table {
					return &cur.entries[i], cur.entries[i].info.Has(c.Column)
				}
			}
			continue
		}
		for i := range cur.entries {
			if cur.entries[i].info.Has(c.Column) {
				return &cur.entries[i], true
			}
		}
	}
	return nil, false
}

// singleEntry returns the one scope entry all of e's columns resolve to,
// or nil (multi-table expressions, derived tables, no columns).
func (s *scope) singleEntry(e ast.Expr) *scopeEntry {
	var entry *scopeEntry
	for _, c := range ast.Columns(e) {
		en, ok := s.entryFor(c)
		if !ok || en == nil || en.table == "" {
			return nil
		}
		if entry != nil && entry != en {
			return nil
		}
		entry = en
	}
	return entry
}

// encConst encrypts a constant under an item's key as a server literal.
// src carries the plaintext literal's provenance tag (empty for constants
// the planner itself synthesizes): the encrypted literal keeps the tag and
// records the item, so a plan template can re-encrypt the slot's future
// values (template.go).
func (ctx *Context) encConst(it *enc.Item, v value.Value, src string) (ast.Expr, bool) {
	cv, err := ctx.Keys.EncryptValue(it, v)
	if err != nil {
		return nil, false
	}
	lit := &ast.Literal{Val: cv, Src: src}
	if src != "" {
		lit.EncBy = it
	}
	return lit, true
}

// isConst reports a constant operand: a literal (the planner folds
// constants before rewriting, so anything still non-literal is not
// constant) or, for the candidate run, a scalar subquery.
func (r rewriter) isConst(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Literal:
		return true
	case *ast.SubqueryExpr:
		return r.candidate
	}
	return false
}

// encrypt turns a constant operand into the server literal under the item's key.
func (r rewriter) encrypt(it *enc.Item, c ast.Expr) (ast.Expr, bool) {
	if r.candidate {
		return c, true
	}
	lit := c.(*ast.Literal)
	return r.ctx.encConst(it, lit.Val, lit.Src)
}

// item asks the item source for the encryption of e (whose columns all
// belong to entry) under scheme. The candidate design proposes one for any
// per-row expression of a suitable kind; aggregates and subqueries are not
// per-row.
func (r rewriter) item(s *scope, entry *scopeEntry, e ast.Expr, scheme enc.Scheme) (*enc.Item, bool) {
	if !r.candidate {
		return r.ctx.findItem(entry.table, e, scheme)
	}
	if ast.HasAggregate(e) || ast.HasSubquery(e) {
		return nil, false
	}
	it, ok := r.ctx.candidateValue(s, e, scheme)
	return &it, ok
}

// rewriteValue rewrites a value expression to an encrypted column reference
// under one of the preferred schemes (tried in order). Returns the server
// expression and the item that encrypts it.
func (r rewriter) rewriteValue(s *scope, e ast.Expr, schemes ...enc.Scheme) (ast.Expr, *enc.Item, bool) {
	entry := s.singleEntry(e)
	if entry == nil {
		return nil, nil, false
	}
	for _, scheme := range schemes {
		if it, ok := r.item(s, entry, e, scheme); ok {
			return &ast.ColumnRef{Table: entry.ref, Column: it.ColumnName()}, it, true
		}
	}
	return nil, nil, false
}

// anySchemes is the fetch preference order: DET integers decrypt fastest,
// then RND, then OPE (whose decryption replays a 48-step binary search).
var anySchemes = []enc.Scheme{enc.DET, enc.RND, enc.OPE}

// rewritePred rewrites a predicate for server evaluation (enctype=PLAIN),
// returning the server predicate and the items it reads.
func (r rewriter) rewritePred(s *scope, e ast.Expr) (ast.Expr, []*enc.Item, bool) {
	switch x := e.(type) {
	case *ast.Literal:
		if x.Val.K == value.Bool {
			return x.Clone(), nil, true
		}

	case *ast.BinaryExpr:
		switch x.Op {
		case ast.OpAnd, ast.OpOr:
			l, litems, ok := r.rewritePred(s, x.Left)
			if !ok {
				return nil, nil, false
			}
			rt, ritems, ok := r.rewritePred(s, x.Right)
			if !ok {
				return nil, nil, false
			}
			return &ast.BinaryExpr{Op: x.Op, Left: l, Right: rt}, append(litems, ritems...), true
		case ast.OpEq, ast.OpNe:
			if out, items, ok := r.rewriteCompare(s, x, enc.DET); ok {
				return out, items, true
			}
			return r.rewriteWholePredicate(s, e)
		case ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
			if out, items, ok := r.rewriteCompare(s, x, enc.OPE); ok {
				return out, items, true
			}
			return r.rewriteWholePredicate(s, e)
		}

	case *ast.UnaryExpr:
		if x.Neg {
			return nil, nil, false
		}
		inner, items, ok := r.rewritePred(s, x.E)
		if !ok {
			return nil, nil, false
		}
		return &ast.UnaryExpr{E: inner}, items, true

	case *ast.BetweenExpr:
		if !r.isConst(x.Lo) || !r.isConst(x.Hi) {
			return nil, nil, false
		}
		sv, it, ok := r.rewriteValue(s, x.E, enc.OPE)
		if !ok {
			return r.rewriteWholePredicate(s, e)
		}
		lo, ok1 := r.encrypt(it, x.Lo)
		hi, ok2 := r.encrypt(it, x.Hi)
		if !ok1 || !ok2 {
			return nil, nil, false
		}
		return &ast.BetweenExpr{E: sv, Lo: lo, Hi: hi, Not: x.Not}, []*enc.Item{it}, true

	case *ast.InExpr:
		if x.Sub != nil {
			return r.rewriteInSubquery(s, x)
		}
		sv, it, ok := r.rewriteValue(s, x.E, enc.DET)
		if !ok {
			return nil, nil, false
		}
		out := &ast.InExpr{E: sv, Not: x.Not}
		for _, el := range x.List {
			if !r.isConst(el) {
				return nil, nil, false
			}
			ev, ok := r.encrypt(it, el)
			if !ok {
				return nil, nil, false
			}
			out.List = append(out.List, ev)
		}
		return out, []*enc.Item{it}, true

	case *ast.LikeExpr:
		return r.rewriteLike(s, x)

	case *ast.IsNullExpr:
		sv, it, ok := r.rewriteValue(s, x.E, anySchemes...)
		if !ok {
			return nil, nil, false
		}
		return &ast.IsNullExpr{E: sv, Not: x.Not}, []*enc.Item{it}, true

	case *ast.ExistsExpr:
		sub, items, _, ok := r.rewriteSubquery(s, x.Sub, false)
		if !ok {
			return nil, nil, false
		}
		return &ast.ExistsExpr{Sub: sub, Not: x.Not}, items, true
	}
	return nil, nil, false
}

// rewriteCompare handles binary comparisons: column-vs-constant under the
// column's item key, or column-vs-column when both sides share a key (DET
// join groups make equi-join keys compatible, as CryptDB's JOIN onions do).
func (r rewriter) rewriteCompare(s *scope, x *ast.BinaryExpr, scheme enc.Scheme) (ast.Expr, []*enc.Item, bool) {
	lconst, rconst := r.isConst(x.Left), r.isConst(x.Right)
	switch {
	case lconst && rconst:
		return nil, nil, false // constant-only predicates are folded earlier
	case lconst || rconst: // expr OP const, or const OP expr
		side, c := x.Left, x.Right
		if lconst {
			side, c = x.Right, x.Left
		}
		sv, it, ok := r.rewriteValue(s, side, scheme)
		if !ok {
			return nil, nil, false
		}
		ev, ok := r.encrypt(it, c)
		if !ok {
			return nil, nil, false
		}
		out := &ast.BinaryExpr{Op: x.Op, Left: sv, Right: ev}
		if lconst {
			out.Left, out.Right = ev, sv
		}
		return out, []*enc.Item{it}, true
	default: // expr OP expr: both sides must encrypt under the same key
		lsv, lit, ok := r.rewriteValue(s, x.Left, scheme)
		if !ok {
			return nil, nil, false
		}
		rsv, rit, ok := r.rewriteValue(s, x.Right, scheme)
		if !ok || lit.KeyLabel() != rit.KeyLabel() {
			return nil, nil, false
		}
		return &ast.BinaryExpr{Op: x.Op, Left: lsv, Right: rsv}, []*enc.Item{lit, rit}, true
	}
}

// rewriteWholePredicate tries the per-row precomputation fallback (§5.1):
// the entire single-table predicate is materialized as a DET-encrypted
// boolean column, and the server filters on pc = Enc(true).
func (r rewriter) rewriteWholePredicate(s *scope, e ast.Expr) (ast.Expr, []*enc.Item, bool) {
	pc, it, ok := r.rewriteValue(s, e, enc.DET)
	if !ok {
		return nil, nil, false
	}
	ev, ok := r.encrypt(it, &ast.Literal{Val: value.NewBool(true)})
	if !ok {
		return nil, nil, false
	}
	return &ast.BinaryExpr{Op: ast.OpEq, Left: pc, Right: ev}, []*enc.Item{it}, true
}

// rewriteLike rewrites single-keyword LIKE via SEARCH_MATCH.
func (r rewriter) rewriteLike(s *scope, x *ast.LikeExpr) (ast.Expr, []*enc.Item, bool) {
	word, ok := patternWord(x.Pattern)
	if !ok {
		return nil, nil, false
	}
	sv, it, ok := r.rewriteValue(s, x.E, enc.SEARCH)
	if !ok {
		return nil, nil, false
	}
	var token []byte
	if !r.candidate {
		token = r.ctx.Keys.Search(it).Trapdoor(word)
	}
	var call ast.Expr = &ast.FuncCall{Name: "search_match", Args: []ast.Expr{sv, &ast.Literal{Val: value.NewBytes(token)}}}
	if x.Not {
		call = &ast.UnaryExpr{E: call}
	}
	return call, []*enc.Item{it}, true
}

// rewriteInSubquery pushes `e IN (SELECT k FROM ...)` to the server when
// the subquery is fully rewritable and both sides share a DET key.
// (Aggregated IN subqueries — Q18 — are handled by pre-filtering and
// client-side evaluation, not direct pushdown.)
func (r rewriter) rewriteInSubquery(s *scope, x *ast.InExpr) (ast.Expr, []*enc.Item, bool) {
	sv, lhs, ok := r.rewriteValue(s, x.E, enc.DET)
	if !ok {
		return nil, nil, false
	}
	sub, items, proj, ok := r.rewriteSubquery(s, x.Sub, true)
	if !ok || proj.KeyLabel() != lhs.KeyLabel() {
		return nil, nil, false
	}
	return &ast.InExpr{E: sv, Sub: sub, Not: x.Not}, append(items, lhs, proj), true
}

// rewriteSubquery rewrites a (possibly correlated) subquery so it can run
// entirely on the server: inside EXISTS, projecting a constant, or
// (needProj) as the right side of IN, where its single projection must have
// a DET item, returned as proj. Correlated references resolve against the
// enclosing scope's encrypted columns.
func (r rewriter) rewriteSubquery(outer *scope, q *ast.Query, needProj bool) (out *ast.Query, items []*enc.Item, proj *enc.Item, ok bool) {
	if len(q.GroupBy) > 0 || q.Having != nil || len(q.OrderBy) > 0 || q.Distinct {
		return nil, nil, nil, false
	}
	inner, err := r.ctx.newScope(q)
	if err != nil {
		return nil, nil, nil, false
	}
	out = ast.NewQuery()
	for i := range inner.entries {
		en := &inner.entries[i]
		if en.table == "" {
			return nil, nil, nil, false // derived tables do not push into EXISTS
		}
		out.From = append(out.From, ast.TableRef{Name: en.table, Alias: en.ref})
	}
	s := inner.chain(outer)
	if q.Where != nil {
		if out.Where, items, ok = r.rewritePred(s, q.Where); !ok {
			return nil, nil, nil, false
		}
	}
	sel := ast.Expr(&ast.Literal{Val: value.NewInt(1)})
	if needProj {
		if len(q.Projections) != 1 {
			return nil, nil, nil, false
		}
		if sel, proj, ok = r.rewriteValue(s, q.Projections[0].Expr, enc.DET); !ok {
			return nil, nil, nil, false
		}
	}
	out.Projections = []ast.SelectItem{{Expr: sel}}
	return out, items, proj, true
}
