package engine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/value"
)

// Subquery execution. A subquery's plan is a property of the block that
// names it: open plans every subquery of its block (planBlock) once, on the
// opening context, before the block's first chain exists, and the plan never
// changes afterwards — so the block's chains evaluate IN, EXISTS and scalar
// subqueries on any shard worker with no synchronization. The plan memo
// (execCtx.subq) is written only from open and what open calls; shard
// contexts share it read-only.
//
// There are two strategies. A subquery that is uncorrelated, or whose
// correlation is top-level equality conjuncts (`inner.col = outer.col`), has
// its inner side drained exactly once — with the correlation removed, the
// same rewrite modern optimizers perform — and hashed on its correlation
// key into the structure hash joins use (joinBuild): evaluating it is a
// join probe, key → lookup → first row (scalar) / non-empty (IN, whose
// membership column is one more key) / any row passing the residual
// (EXISTS). Anything else is naive: re-opened for every outer row that asks,
// on that row's context and goroutine (which is what makes the paper's Q21
// the slow case at scale) — and because those re-opens plan nothing,
// planning a naive subquery plans every block beneath it too (planBeneath).

type subqMode int

const (
	subqScalar subqMode = iota
	subqIn
	subqExists
)

// subqPlan is the strategy of one subquery AST node, immutable once
// planSubquery has stored it.
type subqPlan struct {
	naive bool

	// The hashed inner side. outerKeys evaluate in the outer row's
	// environment (none when uncorrelated: every inner row is under the
	// empty key); residual is EXISTS's remaining correlated predicate,
	// evaluated over each candidate row of the build.
	build     *joinBuild
	outerKeys []ast.Expr
	residual  ast.Expr

	// sets describes an IN set per correlation key (the exprKey of the outer
	// keys; "" when uncorrelated): whether it has any member and whether one
	// is NULL — what three-valued IN needs beyond a membership probe.
	sets map[string]inSet
}

// inSet is what evalIn knows of one IN set besides its non-NULL members.
type inSet struct{ any, null bool }

// probe returns the inner rows filed under the outer row's correlation key;
// none when a correlation key is NULL.
func (p *subqPlan) probe(en *env) ([][]value.Value, error) {
	key, null, err := exprKey(en, p.outerKeys)
	if err != nil || null {
		return nil, err
	}
	return p.build.lookup(key), nil
}

// planned returns the plan the opening of sub's block stored.
func (c *execCtx) planned(sub *ast.Query) (*subqPlan, error) {
	if p := c.subq[sub]; p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("engine: subquery evaluated outside an open block: %s", sub.SQL())
}

// scalarSubquery evaluates a scalar subquery for the current row.
func (c *execCtx) scalarSubquery(en *env, sub *ast.Query) (value.Value, error) {
	p, err := c.planned(sub)
	if err != nil {
		return value.Value{}, err
	}
	var rows [][]value.Value
	if p.naive {
		rows, err = c.runNaive(sub, en)
	} else {
		rows, err = p.probe(en)
	}
	if err != nil {
		return value.Value{}, err
	}
	if len(rows) == 0 {
		return value.NewNull(), nil
	}
	return rows[0][0], nil
}

// evalIn evaluates e [NOT] IN (...), list or subquery, in SQL's three-valued
// logic: TRUE when the left side equals a member; otherwise NULL when the
// left side is NULL or the set holds a NULL (either could have matched), and
// FALSE when neither is — FALSE also for a NULL left side against the empty
// set. NOT swaps TRUE and FALSE and keeps NULL.
func (c *execCtx) evalIn(en *env, x *ast.InExpr) (value.Value, error) {
	lhs, err := eval(en, x.E)
	if err != nil {
		return value.Value{}, err
	}
	member, unknown, err := c.inMember(en, x, lhs)
	switch {
	case err != nil:
		return value.Value{}, err
	case member:
		return value.NewBool(!x.Not), nil
	case unknown:
		return value.NewNull(), nil
	}
	return value.NewBool(x.Not), nil
}

// inMember reports whether lhs is a member of x's set, and when it is not,
// whether the answer is unknown (NULL) rather than FALSE.
func (c *execCtx) inMember(en *env, x *ast.InExpr, lhs value.Value) (member, unknown bool, err error) {
	if x.Sub == nil {
		return inValues(lhs, len(x.List), func(i int) (value.Value, error) { return eval(en, x.List[i]) })
	}
	p, err := c.planned(x.Sub)
	if err != nil {
		return false, false, err
	}
	if p.naive {
		rows, err := c.runNaive(x.Sub, en)
		if err != nil {
			return false, false, err
		}
		return inValues(lhs, len(rows), func(i int) (value.Value, error) { return rows[i][0], nil })
	}
	key, null, err := exprKey(en, p.outerKeys)
	if err != nil || null {
		return false, false, err // a NULL correlation key selects the empty set
	}
	set := p.sets[key]
	if lhs.IsNull() {
		return false, set.any, nil
	}
	if len(p.build.lookup(key+lhs.HashKey()+"\x00")) > 0 {
		return true, false, nil
	}
	return false, set.null, nil
}

// inValues is inMember over a set of n values, the i-th produced by at.
func inValues(lhs value.Value, n int, at func(i int) (value.Value, error)) (member, unknown bool, err error) {
	if lhs.IsNull() {
		return false, n > 0, nil
	}
	for i := 0; i < n; i++ {
		v, err := at(i)
		if err != nil {
			return false, false, err
		}
		if v.IsNull() {
			unknown = true
		} else if value.Equal(lhs, v) {
			return true, false, nil
		}
	}
	return false, unknown, nil
}

// evalExists evaluates [NOT] EXISTS (...) for the current row.
func (c *execCtx) evalExists(en *env, x *ast.ExistsExpr) (bool, error) {
	p, err := c.planned(x.Sub)
	if err != nil {
		return false, err
	}
	var rows [][]value.Value
	if p.naive {
		rows, err = c.runNaive(x.Sub, en)
	} else {
		rows, err = p.probe(en)
	}
	if err != nil {
		return false, err
	}
	found := len(rows) > 0
	if p.residual != nil {
		found = false
		for _, row := range rows {
			inner := &env{rel: p.build.layout, row: row, outer: en, ctx: c}
			if found, err = evalBool(inner, p.residual); err != nil || found {
				break
			}
		}
	}
	return found != x.Not, err
}

// runNaive executes the subquery afresh for the current outer row.
func (c *execCtx) runNaive(sub *ast.Query, en *env) ([][]value.Value, error) {
	c.stats.SubqueryRuns++
	rel, err := c.execQuery(sub, en)
	if err != nil {
		return nil, err
	}
	return rel.rows, nil
}

// planBlock plans every subquery the clauses of q name. open calls it for a
// block opened at top level (no outer row): always on the statement's
// opening context, before the block has a chain.
func (c *execCtx) planBlock(q *ast.Query) (err error) {
	q.EachExpr(func(e ast.Expr) {
		if err == nil {
			err = c.planExpr(e)
		}
	})
	return err
}

// planExpr plans the subqueries e names.
func (c *execCtx) planExpr(e ast.Expr) (err error) {
	ast.Walk(e, func(x ast.Expr) {
		if err != nil {
			return
		}
		switch s := x.(type) {
		case *ast.InExpr:
			if s.Sub != nil {
				err = c.planSubquery(s.Sub, subqIn)
			}
		case *ast.ExistsExpr:
			err = c.planSubquery(s.Sub, subqExists)
		case *ast.SubqueryExpr:
			err = c.planSubquery(s.Sub, subqScalar)
		}
	})
	return err
}

// planBeneath plans what a naive subquery re-opens for every outer row: the
// blocks of its derived tables and the subqueries of its own clauses. Those
// opens happen under an outer row, on whichever worker evaluates it, and
// must find every plan in place. A base table that does not resolve fails
// here, as it fails a subquery that is drained at planning.
func (c *execCtx) planBeneath(q *ast.Query) error {
	for i := range q.From {
		var err error
		if f := &q.From[i]; f.Sub != nil {
			err = c.planBeneath(f.Sub)
		} else {
			_, err = c.eng.Cat.Table(f.Name)
		}
		if err != nil {
			return err
		}
	}
	return c.planBlock(q)
}

// planSubquery chooses and prepares sub's strategy. Only the analysis may
// choose naive (errNoDecorrelate); an inner side that fails to run is the
// statement's error.
func (c *execCtx) planSubquery(sub *ast.Query, mode subqMode) error {
	if c.subq[sub] != nil {
		return nil
	}
	p := &subqPlan{}
	var inner *relation
	var keys []ast.Expr
	var err error
	if free := freeColumns(sub, c.eng); len(free) > 0 {
		inner, keys, err = c.decorrelate(p, sub, free, mode)
	} else if inner, err = c.execQuery(sub, nil); err == nil && mode == subqIn {
		keys = resultKeys(inner, 0, true)
	}
	switch {
	case errors.Is(err, errNoDecorrelate):
		p.naive = true
		err = c.planBeneath(sub)
	case err == nil:
		c.stats.SubqueryRuns++
		if mode == subqIn {
			p.sets = inSets(inner, len(keys)-1)
		}
		p.build, err = c.buildJoinMap(inner, keys, nil)
	}
	if err != nil {
		return err
	}
	if c.subq == nil {
		c.subq = make(map[*ast.Query]*subqPlan)
	}
	c.subq[sub] = p
	return nil
}

var errNoDecorrelate = errors.New("engine: subquery not decorrelatable")

// inSets records, per correlation key, whether an IN set is non-empty and
// whether it holds a NULL member, from the relation resultKeys laid out:
// the member in cell 0, the nk correlation keys after it.
func inSets(rel *relation, nk int) map[string]inSet {
	sets := make(map[string]inSet)
	for _, row := range rel.rows {
		key, null := rowKey(row[1 : nk+1])
		if null {
			continue
		}
		s := sets[key]
		s.any = true
		s.null = s.null || row[0].IsNull()
		sets[key] = s
	}
	return sets
}

// resultKeys relabels a drained result's columns $0, $1, … and returns the
// join keys over it: cells 1..nk — where decorrelate appends the correlation
// keys — then, for IN, the membership cell 0.
func resultKeys(rel *relation, nk int, member bool) []ast.Expr {
	for i := range rel.cols {
		rel.cols[i] = colInfo{name: "$" + strconv.Itoa(i)}
	}
	keys := make([]ast.Expr, 0, nk+1)
	for i := 1; i <= nk; i++ {
		keys = append(keys, &ast.ColumnRef{Column: rel.cols[i].name})
	}
	if member {
		keys = append(keys, &ast.ColumnRef{Column: rel.cols[0].name})
	}
	return keys
}

// decorrelate drains the inner side of an equality-correlated subquery with
// its correlation removed and returns it with the keys to hash it on; the
// outer half of the correlation goes on p.
func (c *execCtx) decorrelate(p *subqPlan, sub *ast.Query, free map[string]bool, mode subqMode) (*relation, []ast.Expr, error) {
	_, inner := fromScope(sub, c.eng)
	isFree := func(col *ast.ColumnRef) bool { return free[col.SQL()] }
	onlyFree := func(e ast.Expr) bool {
		cols := ast.Columns(e)
		if len(cols) == 0 {
			return false
		}
		for _, col := range cols {
			if !isFree(col) {
				return false
			}
		}
		return !ast.HasSubquery(e)
	}
	onlyInner := func(e ast.Expr) bool {
		for _, col := range ast.Columns(e) {
			if isFree(col) {
				return false
			}
			if col.Table == "" && !inner[col.Column] {
				return false
			}
		}
		return !ast.HasSubquery(e)
	}

	// Free columns may only appear in WHERE, and the block must not group:
	// the rewrite regroups (scalar) or ungroups (IN, EXISTS) it.
	if len(sub.GroupBy) > 0 || sub.Having != nil {
		return nil, nil, errNoDecorrelate
	}
	for _, pr := range sub.Projections {
		if exprHasFree(pr.Expr, free) {
			return nil, nil, errNoDecorrelate
		}
	}

	var innerPreds, corrResidual, outerKeys, innerKeys []ast.Expr
	for _, conj := range ast.Conjuncts(sub.Where) {
		if !exprHasFree(conj, free) {
			innerPreds = append(innerPreds, conj)
			continue
		}
		if be, ok := conj.(*ast.BinaryExpr); ok && be.Op == ast.OpEq {
			switch {
			case onlyFree(be.Left) && onlyInner(be.Right):
				outerKeys = append(outerKeys, be.Left)
				innerKeys = append(innerKeys, be.Right)
				continue
			case onlyFree(be.Right) && onlyInner(be.Left):
				outerKeys = append(outerKeys, be.Right)
				innerKeys = append(innerKeys, be.Left)
				continue
			}
		}
		corrResidual = append(corrResidual, conj)
	}
	if len(outerKeys) == 0 || (len(corrResidual) > 0 && mode != subqExists) {
		return nil, nil, errNoDecorrelate
	}
	p.outerKeys, p.residual = outerKeys, ast.AndAll(corrResidual)

	// The inner side is sub with its correlation removed (a shallow copy:
	// execution never writes an AST).
	inq := *sub
	inq.Where = ast.AndAll(innerPreds)
	if mode == subqExists {
		// The unprojected FROM/WHERE front, hashed on the inner half of the
		// correlation. It does not pass through open, so what its WHERE —
		// inner predicates and residual — names is planned here.
		if err := c.planExpr(sub.Where); err != nil {
			return nil, nil, err
		}
		src, err := c.prepare(&inq, nil, false)
		if err != nil {
			return nil, nil, err
		}
		rel, err := c.drainSource(src)
		return rel, innerKeys, err
	}
	// Scalar and IN run the block with the correlation keys appended to its
	// SELECT list; the scalar also regroups by them — one aggregate row per
	// distinct key.
	inq.Projections = inq.Projections[:len(inq.Projections):len(inq.Projections)]
	for _, k := range innerKeys {
		inq.Projections = append(inq.Projections, ast.SelectItem{Expr: k})
	}
	if mode == subqScalar {
		inq.GroupBy = innerKeys
	}
	rel, err := c.execQuery(&inq, nil)
	if err != nil {
		return nil, nil, err
	}
	return rel, resultKeys(rel, len(innerKeys), mode == subqIn), nil
}

// exprHasFree reports whether e mentions any free (outer) column.
func exprHasFree(e ast.Expr, free map[string]bool) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) {
		if col, ok := x.(*ast.ColumnRef); ok && free[col.SQL()] {
			found = true
		}
	})
	if found {
		return true
	}
	for _, s := range ast.Subqueries(e) {
		for f := range freeColumns(s, nil) {
			if free[f] {
				return true
			}
		}
	}
	return found
}

// fromScope returns what sub's own FROM resolves: the names its entries are
// addressed by, and the unqualified column names they supply. Without an
// engine (nil) base tables contribute no column names.
func fromScope(sub *ast.Query, eng *Engine) (refNames, cols map[string]bool) {
	refNames, cols = make(map[string]bool), make(map[string]bool)
	for i := range sub.From {
		f := &sub.From[i]
		refNames[f.RefName()] = true
		switch {
		case f.Sub != nil:
			for _, col := range projectionCols(f.Sub) {
				cols[col.name] = true
			}
		case eng != nil:
			if t, err := eng.Cat.Table(f.Name); err == nil {
				for _, col := range t.Schema.Cols {
					cols[col.Name] = true
				}
			}
		}
	}
	return refNames, cols
}

// freeColumns computes the column references in sub that cannot be resolved
// by sub's own FROM tables (i.e. correlated references to enclosing scopes).
// Keys are the rendered SQL of the reference. Without an engine (nil) only
// qualified references resolve.
func freeColumns(sub *ast.Query, eng *Engine) map[string]bool {
	refNames, innerCols := fromScope(sub, eng)
	free := make(map[string]bool)
	sub.EachExpr(func(e ast.Expr) {
		ast.Walk(e, func(x ast.Expr) {
			col, ok := x.(*ast.ColumnRef)
			if !ok || col.Column == "*" {
				return
			}
			if col.Table != "" {
				if !refNames[col.Table] {
					free[col.SQL()] = true
				}
			} else if !innerCols[col.Column] {
				free[col.SQL()] = true
			}
		})
		for _, s := range ast.Subqueries(e) {
			for f := range freeColumns(s, eng) {
				// A free column of the nested subquery might still resolve
				// against *this* query's tables.
				if table, _, qualified := strings.Cut(f, "."); qualified {
					if !refNames[table] {
						free[f] = true
					}
				} else if !innerCols[f] {
					free[f] = true
				}
			}
		}
	})
	return free
}
