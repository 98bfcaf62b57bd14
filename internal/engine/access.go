package engine

import (
	"math"
	"sort"

	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/value"
)

// Access-path selection. When Engine.UseIndexes is on, a single-table scan
// may be served by a secondary index instead of reading every row: a DET
// hash index answers `=` and `IN` conjuncts, an OPE ordered index answers
// `<`/`<=`/`>`/`>=`/`BETWEEN`, each written `col op const`. The index
// yields an ascending row-id list that is always a SUPERSET of the rows the
// chosen conjunct matches (NULL keys are never indexed and every sargable
// predicate is non-true on NULL), and the full WHERE clause is re-applied
// as a residual filter over the fetched rows — so rows, row order, and
// therefore the final result are byte-identical to the full-scan path at
// every parallelism level and batch size. What changes is the charged I/O:
// an index scan pays bytes in proportion to the rows it actually fetches.
//
// Selection is cost-based with exact cardinalities: the index knows the
// true posting/range size k before any row is read, and the scan reads n
// rows, so the index wins iff k*indexRowCost < n.

// indexRowCost is the charged cost ratio of an index row fetch to a
// sequential scan row: index access is random, so the crossover sits at
// 1/indexRowCost selectivity (25%), far above the selectivities where
// indexes matter and safely below the region where a scan's locality wins.
const indexRowCost = 4

// accessPath chooses the access path of a single-table block's scan and
// installs it on p. Every index-answerable WHERE conjunct is probed and the
// shortest id list is kept — the exact form of the most selective conjunct
// planner.bestIndexConjunct estimates — while the residual filter applies
// the rest; it replaces the full scan when it beats the cost rule. Index
// stats are charged here, once, on the resolving context — resolution
// happens before any morsel runs.
func (c *execCtx) accessPath(q *ast.Query, p *pipeline) {
	t := p.src.t
	n := t.NumRows()
	var ids []int32 // nil until a conjunct is probed
	var lookups int64
	for _, e := range ast.Conjuncts(q.Where) {
		cids, clk, ok := c.sargIDs(t, e)
		if !ok {
			continue
		}
		lookups += clk
		if ids == nil || len(cids) < len(ids) {
			ids = cids
		}
		if len(ids) == 0 {
			break // the AND can match nothing; later conjuncts can't grow it
		}
	}
	if ids != nil && len(ids)*indexRowCost < n {
		c.chargeIndex(lookups, int64(n-len(ids)))
		p.src.ids = ids
	}
}

// chargeIndex records index usage on the per-query stats and the engine's
// cumulative counters (the monomi layer reads the cumulative side: per-query
// engine stats do not cross the remote wire).
func (c *execCtx) chargeIndex(lookups, skipped int64) {
	c.stats.IndexLookups += lookups
	c.stats.RowsSkippedByIndex += skipped
	c.eng.cumIndexLookups.Add(lookups)
	c.eng.cumRowsSkipped.Add(skipped)
}

// sargIDs resolves one WHERE conjunct against t's indexes. ok=true means
// ids (never nil) is an ascending superset of the rows where the conjunct
// can hold, obtained with the returned number of index probes.
func (c *execCtx) sargIDs(t *storage.Table, e ast.Expr) ([]int32, int64, bool) {
	switch x := e.(type) {
	case *ast.BinaryExpr:
		col, lit, op, ok := colOpConst(c, x)
		if !ok || isNaN(lit) {
			return nil, 0, false
		}
		if op == ast.OpEq {
			ix := t.Index(col, storage.HashIndex)
			if ix == nil {
				return nil, 0, false
			}
			if lit.IsNull() {
				return []int32{}, 0, true // `= NULL` is never true
			}
			if !ix.Usable(lit.K) {
				return nil, 0, false
			}
			return notNil(ix.Postings(lit)), 1, true
		}
		ix := t.Index(col, storage.OrderedIndex)
		if ix == nil {
			return nil, 0, false
		}
		if lit.IsNull() {
			return []int32{}, 0, true // comparisons against NULL are never true
		}
		if !ix.Usable(lit.K) {
			return nil, 0, false
		}
		var lo, hi *value.Value
		var loIncl, hiIncl bool
		switch op {
		case ast.OpLt:
			hi = &lit
		case ast.OpLe:
			hi, hiIncl = &lit, true
		case ast.OpGt:
			lo = &lit
		case ast.OpGe:
			lo, loIncl = &lit, true
		default:
			return nil, 0, false
		}
		// Count first (two binary searches): an unselective range would fail
		// the cost rule anyway, so don't pay for materializing its ids.
		if ix.RangeCount(lo, hi, loIncl, hiIncl)*indexRowCost >= t.NumRows() {
			return nil, 0, false
		}
		return notNil(ix.Range(lo, hi, loIncl, hiIncl)), 1, true

	case *ast.BetweenExpr:
		if x.Not {
			return nil, 0, false
		}
		col, ok := bareCol(x.E)
		if !ok {
			return nil, 0, false
		}
		ix := t.Index(col, storage.OrderedIndex)
		if ix == nil {
			return nil, 0, false
		}
		lo, ok := c.constVal(x.Lo)
		if !ok || isNaN(lo) {
			return nil, 0, false
		}
		hi, ok := c.constVal(x.Hi)
		if !ok || isNaN(hi) {
			return nil, 0, false
		}
		if lo.IsNull() || hi.IsNull() {
			return []int32{}, 0, true // BETWEEN with a NULL bound is never true
		}
		if !ix.Usable(lo.K) || !ix.Usable(hi.K) {
			return nil, 0, false
		}
		if ix.RangeCount(&lo, &hi, true, true)*indexRowCost >= t.NumRows() {
			return nil, 0, false
		}
		return notNil(ix.Range(&lo, &hi, true, true)), 1, true

	case *ast.InExpr:
		if x.Not || x.Sub != nil {
			return nil, 0, false
		}
		col, ok := bareCol(x.E)
		if !ok {
			return nil, 0, false
		}
		ix := t.Index(col, storage.HashIndex)
		if ix == nil {
			return nil, 0, false
		}
		var union []int32
		var lookups int64
		for _, el := range x.List {
			v, ok := c.constVal(el)
			if !ok || isNaN(v) {
				return nil, 0, false
			}
			if v.IsNull() {
				continue // a NULL element matches nothing
			}
			if !ix.Usable(v.K) {
				return nil, 0, false
			}
			union = append(union, ix.Postings(v)...)
			lookups++
		}
		sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
		// Dedup: two IN elements can share a posting (e.g. 2 and 2.0).
		dst := 0
		for i, id := range union {
			if i == 0 || id != union[dst-1] {
				union[dst] = id
				dst++
			}
		}
		return notNil(union[:dst]), lookups, true
	}
	return nil, 0, false
}

// notNil normalizes an empty id list: nil means "no index" to rowSource.
func notNil(ids []int32) []int32 {
	if ids == nil {
		return []int32{}
	}
	return ids
}

// isNaN reports a float NaN constant. NaN Compare-equals every numeric but
// hashes uniquely, so no index lookup can mirror the evaluator on it.
func isNaN(v value.Value) bool {
	return v.K == value.Float && math.IsNaN(v.F)
}

// bareCol returns the column e names when it is a column reference: resolve
// bound every name of a single-table block opened with no outer row to its
// one table.
func bareCol(e ast.Expr) (string, bool) {
	cr, ok := e.(*ast.ColumnRef)
	if !ok || cr.Column == "*" {
		return "", false
	}
	return cr.Column, true
}

// constVal resolves e as a constant: a literal or a bound parameter.
func (c *execCtx) constVal(e ast.Expr) (value.Value, bool) {
	switch x := e.(type) {
	case *ast.Literal:
		return x.Val, true
	case *ast.Param:
		v, ok := c.params[x.Name]
		return v, ok
	}
	return value.Value{}, false
}

// colOpConst decomposes a `col op const` comparison into (indexable
// column, constant, operator).
func colOpConst(c *execCtx, x *ast.BinaryExpr) (string, value.Value, ast.BinOp, bool) {
	if !x.Op.IsComparison() || x.Op == ast.OpNe {
		return "", value.Value{}, 0, false
	}
	col, ok := bareCol(x.Left)
	if !ok {
		return "", value.Value{}, 0, false
	}
	lit, ok := c.constVal(x.Right)
	if !ok {
		return "", value.Value{}, 0, false
	}
	return col, lit, x.Op, true
}

// probedBuild serves a hash-join build side from the base table's hash index
// on a join key, when the side is one unfiltered base-table scan and the key
// probeKey picks has one: nothing is drained, and each probe batch fetches
// just the rows its keys' postings name (tableProbe). On a join step (step)
// the key may be one of several, and the probe checks the others on the rows
// it fetched (probeIterator.recheck). A build read by whole-key lookup
// (joinBuild.lookup, a subquery's) must have a single key. A filtered side, a
// join or a derived table drains instead, as does every side when indexes
// are off. The one index lookup is charged here, where the build is chosen.
func (c *execCtx) probedBuild(p *pipeline, keys []ast.Expr, step bool) *joinBuild {
	t := p.src.t
	if !c.useIdx || (!step && len(keys) != 1) {
		return nil
	}
	// The layout names a key column; its position there is not its schema
	// position once the scan is pruned to the statement's columns.
	col := func(cr *ast.ColumnRef) int {
		ci, err := p.layout.indexOf(cr.Table, cr.Column)
		if err != nil || ci < 0 {
			return -1
		}
		return t.Schema.ColIndex(p.layout.cols[ci].name)
	}
	at := probeKey(t, p.filter != nil || len(p.steps) > 0, keys, col)
	if at < 0 {
		return nil
	}
	ix := t.Index(t.Schema.Cols[col(keys[at].(*ast.ColumnRef))].Name, storage.HashIndex)
	if ix == nil {
		return nil
	}
	c.chargeIndex(1, 0)
	return &joinBuild{layout: p.layout, at: at, ix: &tableProbe{t: t, cols: p.src.cols, ix: ix}}
}

// probeKey is the one rule for which build sides an index can serve, read by
// execution (probedBuild) and by the join order's estimates (joinEst): the
// side must be an unfiltered base table t, and it probes by its key column
// with the most distinct values, whose postings are shortest. col gives a
// key column's position in t's schema, or -1. probeKey returns that key's
// position among keys, or -1 when the side is not of that shape; it does not
// ask whether t has the index.
func probeKey(t *storage.Table, filtered bool, keys []ast.Expr, col func(*ast.ColumnRef) int) int {
	if t == nil || filtered {
		return -1
	}
	at, best := -1, int64(-1)
	for i, k := range keys {
		cr, ok := k.(*ast.ColumnRef)
		if !ok {
			continue
		}
		if ci := col(cr); ci >= 0 && t.ColMeta(ci).NDV > best {
			at, best = i, t.ColMeta(ci).NDV
		}
	}
	return at
}
