package engine

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/value"
)

// Subquery execution. Uncorrelated subqueries are executed once and cached.
// Correlated subqueries whose correlation is expressed as top-level equality
// conjuncts (`inner.col = outer.col`) are decorrelated into a single grouped
// execution plus a hash lookup per outer row — the same rewrite modern
// optimizers perform. Anything else falls back to naive per-row execution
// (which is what makes the paper's Q21 the slow case at scale). Every one of
// these executions drains the subquery's own iterator tree (execQuery; the
// EXISTS bucketing drains just its FROM/WHERE front, drainSource), on the
// context and goroutine of the row that asked.

type subqMode int

const (
	subqScalar subqMode = iota
	subqIn
	subqExists
)

// subqPlan is the cached strategy + results for one subquery AST node.
type subqPlan struct {
	mode  subqMode
	naive bool

	// Uncorrelated results.
	uncorr    bool
	scalarVal value.Value
	inSet     map[string]bool
	existsVal bool

	// Decorrelated state.
	outerKeys []ast.Expr                 // evaluated in the outer env
	scalarMap map[string]value.Value     // scalar: key -> value
	inMap     map[string]map[string]bool // in: key -> set of member values
	buckets   map[string][][]value.Value // exists: key -> candidate rows
	bucketRel *relation                  // column layout of bucket rows
	residual  ast.Expr                   // extra correlated predicate (exists)
}

// scalarSubquery evaluates a scalar subquery for the current row.
func (c *execCtx) scalarSubquery(en *env, sub *ast.Query) (value.Value, error) {
	p, err := c.planSubquery(sub, en, subqScalar)
	if err != nil {
		return value.Value{}, err
	}
	if p.naive {
		rel, err := c.runNaive(sub, en)
		if err != nil {
			return value.Value{}, err
		}
		if len(rel.rows) == 0 {
			return value.NewNull(), nil
		}
		return rel.rows[0][0], nil
	}
	if p.uncorr {
		return p.scalarVal, nil
	}
	key, null, err := exprKey(en, p.outerKeys)
	if err != nil {
		return value.Value{}, err
	}
	if null {
		return value.NewNull(), nil
	}
	v, ok := p.scalarMap[key]
	if !ok {
		return value.NewNull(), nil
	}
	return v, nil
}

// evalIn evaluates e IN (...) including list and subquery forms.
func (c *execCtx) evalIn(en *env, x *ast.InExpr) (value.Value, error) {
	lhs, err := eval(en, x.E)
	if err != nil {
		return value.Value{}, err
	}
	if lhs.IsNull() {
		return value.NewNull(), nil
	}
	if x.Sub == nil {
		for _, item := range x.List {
			v, err := eval(en, item)
			if err != nil {
				return value.Value{}, err
			}
			if value.Equal(lhs, v) {
				return value.NewBool(!x.Not), nil
			}
		}
		return value.NewBool(x.Not), nil
	}

	p, err := c.planSubquery(x.Sub, en, subqIn)
	if err != nil {
		return value.Value{}, err
	}
	var member bool
	switch {
	case p.naive:
		rel, err := c.runNaive(x.Sub, en)
		if err != nil {
			return value.Value{}, err
		}
		for _, row := range rel.rows {
			if value.Equal(lhs, row[0]) {
				member = true
				break
			}
		}
	case p.uncorr:
		member = p.inSet[lhs.HashKey()]
	default:
		key, null, err := exprKey(en, p.outerKeys)
		if err != nil {
			return value.Value{}, err
		}
		if !null {
			member = p.inMap[key][lhs.HashKey()]
		}
	}
	return value.NewBool(member != x.Not), nil
}

// evalExists evaluates EXISTS (...) for the current row (negation is the
// caller's job).
func (c *execCtx) evalExists(en *env, x *ast.ExistsExpr) (bool, error) {
	p, err := c.planSubquery(x.Sub, en, subqExists)
	if err != nil {
		return false, err
	}
	var found bool
	switch {
	case p.naive:
		rel, err := c.runNaive(x.Sub, en)
		if err != nil {
			return false, err
		}
		found = len(rel.rows) > 0
	case p.uncorr:
		found = p.existsVal
	default:
		key, null, err := exprKey(en, p.outerKeys)
		if err != nil {
			return false, err
		}
		if null {
			break
		}
		rows := p.buckets[key]
		if p.residual == nil {
			found = len(rows) > 0
			break
		}
		for _, row := range rows {
			inner := &env{rel: p.bucketRel, row: row, outer: en, ctx: c}
			ok, err := evalBool(inner, p.residual)
			if err != nil {
				return false, err
			}
			if ok {
				found = true
				break
			}
		}
	}
	if x.Not {
		return !found, nil
	}
	return found, nil
}

// runNaive executes the subquery afresh for the current outer row.
func (c *execCtx) runNaive(sub *ast.Query, en *env) (*relation, error) {
	c.stats.SubqueryRuns++
	return c.execQuery(sub, en)
}

// planSubquery prepares (once) the execution strategy for a subquery.
func (c *execCtx) planSubquery(sub *ast.Query, en *env, mode subqMode) (*subqPlan, error) {
	if p, ok := c.subq[sub]; ok {
		return p, nil
	}
	p := &subqPlan{mode: mode}
	if c.subq == nil {
		c.subq = make(map[*ast.Query]*subqPlan)
	}
	c.subq[sub] = p

	free := freeColumns(sub, c.eng)
	if len(free) == 0 {
		p.uncorr = true
		c.stats.SubqueryRuns++
		rel, err := c.execQuery(sub, nil)
		if err != nil {
			return nil, err
		}
		switch mode {
		case subqScalar:
			if len(rel.rows) == 0 {
				p.scalarVal = value.NewNull()
			} else {
				p.scalarVal = rel.rows[0][0]
			}
		case subqIn:
			p.inSet = make(map[string]bool, len(rel.rows))
			for _, row := range rel.rows {
				if !row[0].IsNull() {
					p.inSet[row[0].HashKey()] = true
				}
			}
		case subqExists:
			p.existsVal = len(rel.rows) > 0
		}
		return p, nil
	}

	// Correlated: attempt decorrelation via equality conjuncts.
	if err := c.decorrelate(p, sub, free); err != nil {
		p.naive = true
	}
	return p, nil
}

var errNoDecorrelate = fmt.Errorf("engine: subquery not decorrelatable")

// innerColumns returns the set of unqualified column names resolvable by
// sub's own FROM tables.
func (c *execCtx) innerColumns(sub *ast.Query) map[string]bool {
	inner := make(map[string]bool)
	for i := range sub.From {
		f := &sub.From[i]
		if f.Sub != nil {
			for _, p := range f.Sub.Projections {
				name := p.Alias
				if name == "" {
					if cr, ok := p.Expr.(*ast.ColumnRef); ok {
						name = cr.Column
					}
				}
				if name != "" {
					inner[name] = true
				}
			}
			continue
		}
		if t, err := c.eng.Cat.Table(f.Name); err == nil {
			for _, col := range t.Schema.Cols {
				inner[col.Name] = true
			}
		}
	}
	return inner
}

// decorrelate builds hash-lookup state for an equality-correlated subquery.
func (c *execCtx) decorrelate(p *subqPlan, sub *ast.Query, free map[string]bool) error {
	inner := c.innerColumns(sub)
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

	// Free columns may only appear in WHERE (not projections, GROUP BY...).
	for _, pr := range sub.Projections {
		if exprHasFree(pr.Expr, free) {
			return errNoDecorrelate
		}
	}
	for _, g := range sub.GroupBy {
		if exprHasFree(g, free) {
			return errNoDecorrelate
		}
	}
	if sub.Having != nil && exprHasFree(sub.Having, free) {
		return errNoDecorrelate
	}

	var (
		innerPreds   []ast.Expr
		corrResidual []ast.Expr
		outerKeys    []ast.Expr
		innerKeys    []ast.Expr
	)
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
	if len(outerKeys) == 0 {
		return errNoDecorrelate
	}

	switch p.mode {
	case subqExists:
		if len(sub.GroupBy) > 0 || sub.Having != nil {
			return errNoDecorrelate
		}
		// Drain the inner FROM with only the inner predicates, then
		// bucket its rows by the correlation key.
		inq := sub.Clone()
		inq.Where = ast.AndAll(innerPreds)
		src, err := c.prepare(inq, nil, false)
		if err != nil {
			return err
		}
		rel, err := c.drainSource(src)
		if err != nil {
			return err
		}
		p.bucketRel = rel
		p.buckets = make(map[string][][]value.Value)
		for _, row := range rel.rows {
			en := &env{rel: rel, row: row, ctx: c}
			key, null, err := exprKey(en, innerKeys)
			if err != nil {
				return err
			}
			if null {
				continue
			}
			p.buckets[key] = append(p.buckets[key], row)
		}
		p.residual = ast.AndAll(corrResidual)
		p.outerKeys = outerKeys
		c.stats.SubqueryRuns++
		return nil

	case subqScalar:
		if len(corrResidual) > 0 || len(sub.GroupBy) > 0 || sub.Having != nil {
			return errNoDecorrelate
		}
		// Regroup the subquery by its correlation keys: one aggregate row
		// per distinct outer key.
		inq := sub.Clone()
		inq.Where = ast.AndAll(cloneAll(innerPreds))
		inq.GroupBy = cloneAll(innerKeys)
		for _, k := range innerKeys {
			inq.Projections = append(inq.Projections, ast.SelectItem{Expr: k.Clone()})
		}
		rel, err := c.execQuery(inq, nil)
		if err != nil {
			return err
		}
		p.scalarMap = make(map[string]value.Value, len(rel.rows))
		nk := len(innerKeys)
		for _, row := range rel.rows {
			if key, null := rowKey(row[len(row)-nk:]); !null {
				p.scalarMap[key] = row[0]
			}
		}
		p.outerKeys = outerKeys
		c.stats.SubqueryRuns++
		return nil

	case subqIn:
		if len(corrResidual) > 0 || len(sub.GroupBy) > 0 || sub.Having != nil {
			return errNoDecorrelate
		}
		inq := sub.Clone()
		inq.Where = ast.AndAll(cloneAll(innerPreds))
		for _, k := range innerKeys {
			inq.Projections = append(inq.Projections, ast.SelectItem{Expr: k.Clone()})
		}
		rel, err := c.execQuery(inq, nil)
		if err != nil {
			return err
		}
		p.inMap = make(map[string]map[string]bool)
		nk := len(innerKeys)
		for _, row := range rel.rows {
			key, null := rowKey(row[len(row)-nk:])
			if null || row[0].IsNull() {
				continue
			}
			set := p.inMap[key]
			if set == nil {
				set = make(map[string]bool)
				p.inMap[key] = set
			}
			set[row[0].HashKey()] = true
		}
		p.outerKeys = outerKeys
		c.stats.SubqueryRuns++
		return nil
	}
	return errNoDecorrelate
}

func cloneAll(es []ast.Expr) []ast.Expr {
	out := make([]ast.Expr, len(es))
	for i, e := range es {
		out[i] = e.Clone()
	}
	return out
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

// freeColumns computes the column references in sub that cannot be resolved
// by sub's own FROM tables (i.e. correlated references to enclosing scopes).
// Keys are the rendered SQL of the reference. Without an engine (nil) base
// tables contribute no column names, so only qualified references resolve.
func freeColumns(sub *ast.Query, eng *Engine) map[string]bool {
	refNames := make(map[string]bool)
	innerCols := make(map[string]bool)
	for i := range sub.From {
		f := &sub.From[i]
		refNames[f.RefName()] = true
		switch {
		case f.Sub != nil:
			for _, p := range f.Sub.Projections {
				name := p.Alias
				if name == "" {
					if cr, ok := p.Expr.(*ast.ColumnRef); ok {
						name = cr.Column
					}
				}
				if name != "" {
					innerCols[name] = true
				}
			}
		case eng != nil:
			if t, err := eng.Cat.Table(f.Name); err == nil {
				for _, col := range t.Schema.Cols {
					innerCols[col.Name] = true
				}
			}
		}
	}

	free := make(map[string]bool)
	checkCol := func(col *ast.ColumnRef) {
		if col.Column == "*" {
			return
		}
		if col.Table != "" {
			if !refNames[col.Table] {
				free[col.SQL()] = true
			}
			return
		}
		if !innerCols[col.Column] {
			free[col.SQL()] = true
		}
	}
	var visitExpr func(e ast.Expr)
	visitExpr = func(e ast.Expr) {
		ast.Walk(e, func(x ast.Expr) {
			if col, ok := x.(*ast.ColumnRef); ok {
				checkCol(col)
			}
		})
		for _, s := range ast.Subqueries(e) {
			for f := range freeColumns(s, eng) {
				// A free column of the nested subquery might still resolve
				// against *this* query's tables.
				parts := strings.SplitN(f, ".", 2)
				if len(parts) == 2 {
					if !refNames[parts[0]] {
						free[f] = true
					}
				} else if !innerCols[parts[0]] {
					free[f] = true
				}
			}
		}
	}
	for _, p := range sub.Projections {
		visitExpr(p.Expr)
	}
	if sub.Where != nil {
		visitExpr(sub.Where)
	}
	for _, g := range sub.GroupBy {
		visitExpr(g)
	}
	if sub.Having != nil {
		visitExpr(sub.Having)
	}
	for _, o := range sub.OrderBy {
		visitExpr(o.Expr)
	}
	return free
}
