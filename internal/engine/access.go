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
// `<`/`<=`/`>`/`>=`/`BETWEEN` and single-key prefix ORDER BY. The index
// yields an ascending row-id list that is always a SUPERSET of the rows the
// chosen conjunct matches (NULL keys are never indexed and every sargable
// predicate is non-true on NULL), and the full WHERE clause is re-applied
// as a residual filter over the fetched rows — so rows, row order, and
// therefore the final result are byte-identical to the full-scan path at
// every parallelism level, batch size, and wire mode. What changes is the
// charged I/O: an index scan pays bytes in proportion to the rows it
// actually fetches.
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
// installs it on p. Every index-answerable WHERE conjunct contributes its
// ascending id list, and the lists are intersected (each is a superset of
// its conjunct's matches, so the intersection is a superset of the rows
// where the whole AND can hold) before the residual filter; the
// intersection replaces the full scan when it beats the cost rule. A block
// left on the full table may instead scan in an ordered index's emission
// order and drop its sort (orderedEmission). Index stats are charged here,
// once, on the resolving context — resolution happens before any sharding.
func (c *execCtx) accessPath(q *ast.Query, p *pipeline, refName string) {
	t := p.src.t
	n := t.NumRows()
	var ids []int32
	var lookups int64
	found := false
	for _, e := range ast.Conjuncts(q.Where) {
		cids, clk, ok := c.sargIDs(t, refName, e)
		if !ok {
			continue
		}
		lookups += clk
		if !found {
			ids, found = cids, true
		} else {
			ids = intersectIDs(ids, cids)
		}
		if len(ids) == 0 {
			break // the AND can match nothing; later conjuncts can't grow it
		}
	}
	if found && len(ids)*indexRowCost < n {
		c.chargeIndex(lookups, int64(n-len(ids)))
		p.src.ids = ids
		return
	}
	if ids, ok := c.orderedEmission(q, t, refName); ok {
		p.src.ids, p.ordered = ids, true
	}
}

// intersectIDs merges two ascending id lists into their intersection
// (two-pointer; never aliases either input, which may be live posting
// lists).
func intersectIDs(a, b []int32) []int32 {
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
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
func (c *execCtx) sargIDs(t *storage.Table, refName string, e ast.Expr) ([]int32, int64, bool) {
	switch x := e.(type) {
	case *ast.BinaryExpr:
		col, lit, op, ok := colOpConst(c, t, refName, x)
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
		col, ok := bareCol(t, refName, x.E)
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
		col, ok := bareCol(t, refName, x.E)
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

// bareCol resolves e as a reference to one of t's columns (optionally
// qualified by the scan's alias) and returns the schema column name.
func bareCol(t *storage.Table, refName string, e ast.Expr) (string, bool) {
	cr, ok := e.(*ast.ColumnRef)
	if !ok || cr.Column == "*" {
		return "", false
	}
	if cr.Table != "" && cr.Table != refName {
		return "", false
	}
	if t.Schema.ColIndex(cr.Column) < 0 {
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

// colOpConst decomposes a comparison into (indexable column, constant,
// operator), flipping `const op col` into the mirrored `col op' const`.
func colOpConst(c *execCtx, t *storage.Table, refName string, x *ast.BinaryExpr) (string, value.Value, ast.BinOp, bool) {
	if !x.Op.IsComparison() || x.Op == ast.OpNe {
		return "", value.Value{}, 0, false
	}
	if col, ok := bareCol(t, refName, x.Left); ok {
		if lit, ok := c.constVal(x.Right); ok {
			return col, lit, x.Op, true
		}
		return "", value.Value{}, 0, false
	}
	col, ok := bareCol(t, refName, x.Right)
	if !ok {
		return "", value.Value{}, 0, false
	}
	lit, ok := c.constVal(x.Left)
	if !ok {
		return "", value.Value{}, 0, false
	}
	op := x.Op
	switch x.Op {
	case ast.OpLt:
		op = ast.OpGt
	case ast.OpLe:
		op = ast.OpGe
	case ast.OpGt:
		op = ast.OpLt
	case ast.OpGe:
		op = ast.OpLe
	}
	return col, lit, op, true
}

// orderedEmission serves a single-key ORDER BY on a bare indexed column
// from the ordered index: rows emit in exactly the stable-sort order
// (NULLS first ascending, last descending, row id breaking ties), so the
// sort breaker disappears. Grouped and DISTINCT queries order their
// own outputs and are excluded; multi-key ORDER BY cannot use a one-column
// run (a later key reorders within equal-prefix groups).
func (c *execCtx) orderedEmission(q *ast.Query, t *storage.Table, refName string) ([]int32, bool) {
	if len(q.OrderBy) != 1 || q.Distinct || c.isGrouped(q) {
		return nil, false
	}
	col, ok := bareCol(t, refName, q.OrderBy[0].Expr)
	if !ok {
		return nil, false
	}
	ix := t.Index(col, storage.OrderedIndex)
	if ix == nil {
		return nil, false
	}
	ids := ix.EmitOrdered(q.OrderBy[0].Desc)
	if ids == nil {
		return nil, false // mixed-class run: no total order
	}
	c.chargeIndex(1, 0)
	return ids, true
}

// indexedBuild serves a hash-join build side straight from the base table's
// hash index instead of materializing a partitioned map: posting lists are
// ascending row ids — exactly build-side row order — so probe output is
// byte-identical to the map-based build. Only an unfiltered single-key
// base-table scan qualifies; a filtered build side is a fresh relation with
// no base, which disables this path automatically.
func (c *execCtx) indexedBuild(right *relation, rightKeys []ast.Expr) *joinBuild {
	if !c.useIdx || right.base == nil || len(rightKeys) != 1 {
		return nil
	}
	cr, ok := rightKeys[0].(*ast.ColumnRef)
	if !ok {
		return nil
	}
	// The layout names the key column; its position there is not its schema
	// position once the scan is pruned to the statement's columns.
	ci, err := right.indexOf(cr.Table, cr.Column)
	if err != nil || ci < 0 {
		return nil
	}
	ix := right.base.Index(right.cols[ci].name, storage.HashIndex)
	if ix == nil {
		return nil
	}
	// The build side was already scan-charged when it was drained; the
	// saving here is the skipped map construction, recorded as one lookup.
	c.chargeIndex(1, 0)
	return &joinBuild{layout: &relation{cols: right.cols}, rows: right.rows, ix: ix}
}
