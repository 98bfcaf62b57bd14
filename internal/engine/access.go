package engine

import (
	"math"
	"slices"

	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/value"
)

// Access-path selection. A single-table scan over a table that declares
// secondary indexes may be served by one instead of reading every row: the
// conjuncts ast.Sargable accepts are probed, a DET hash index answering `=`
// and `IN`, an OPE ordered index `<`/`<=`/`>`/`>=`/`BETWEEN`. A table that
// declares none (an index-free deployment, a client temp table) skips all of
// it. The index yields an ascending row-id list that is always a SUPERSET of
// the rows the chosen conjunct matches (NULL keys are never indexed and every
// sargable predicate is non-true on NULL), and the full WHERE clause is
// re-applied as a residual filter over the fetched rows — so rows, row
// order, and therefore the final result are byte-identical to the full-scan
// path at every parallelism level and batch size. What changes is the
// charged I/O: an index scan pays bytes in proportion to the rows it
// actually fetches.
//
// Selection is cost-based with exact cardinalities: the index knows the
// true posting/range size k before any row is read, and the scan reads n
// rows, so the index wins iff k*storage.IndexRowCost < n.

// accessPath chooses the access path of a single-table block's scan and
// installs it on p. Every index-answerable WHERE conjunct is probed and the
// shortest id list is kept — the exact form of the most selective conjunct
// planner.bestIndexConjunct estimates — while the residual filter applies
// the rest; it replaces the full scan when it beats the cost rule. Index
// stats are charged here, once, on the resolving context — resolution
// happens before any morsel runs. The first probe of an index builds it
// (storage.Table.Index); a failed build fails the query.
func (c *execCtx) accessPath(q *ast.Query, p *pipeline) error {
	t := p.src.t
	n := t.NumRows()
	var ids []int32 // nil until a conjunct is probed
	var lookups int64
	for _, e := range ast.Conjuncts(q.Where) {
		cids, clk, ok, err := c.sargIDs(t, e)
		if err != nil {
			return err
		}
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
	if ids != nil && len(ids)*storage.IndexRowCost < n {
		c.chargeIndex(lookups, int64(n-len(ids)))
		p.src.ids = ids
	}
	return nil
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
// can hold, obtained with the returned number of index probes; err is a
// failed index build.
func (c *execCtx) sargIDs(t *storage.Table, e ast.Expr) (ids []int32, lookups int64, ok bool, err error) {
	s, ok := ast.Sargable(e)
	if !ok {
		return nil, 0, false, nil
	}
	if s.Range() {
		return c.rangeIDs(t, &s)
	}
	return c.eqIDs(t, &s)
}

// eqIDs answers an equality or IN list from its column's hash index: the
// union of its constants' postings, one probe per non-NULL constant.
func (c *execCtx) eqIDs(t *storage.Table, s *ast.Sarg) ([]int32, int64, bool, error) {
	keys := s.In
	if s.Eq != nil {
		keys = []ast.Expr{s.Eq}
	}
	ix, err := t.Index(s.Col.Column, storage.HashIndex)
	if ix == nil {
		return nil, 0, false, err
	}
	var union []int32
	var lookups int64
	for _, k := range keys {
		v, ok := c.constVal(k)
		if !ok || isNaN(v) {
			return nil, 0, false, nil
		}
		if v.IsNull() {
			continue // `= NULL` is never true
		}
		if !ix.Usable(v.K) {
			return nil, 0, false, nil
		}
		if len(keys) == 1 {
			return notNil(ix.Postings(v)), 1, true, nil
		}
		union = append(union, ix.Postings(v)...)
		lookups++
	}
	// Two constants can share a posting (e.g. 2 and 2.0).
	slices.Sort(union)
	return notNil(slices.Compact(union)), lookups, true, nil
}

// rangeIDs answers a range from its column's ordered index, when the range
// is selective enough to pass the cost rule.
func (c *execCtx) rangeIDs(t *storage.Table, s *ast.Sarg) ([]int32, int64, bool, error) {
	var v [2]value.Value  // the constant bounds
	var b [2]*value.Value // lower and upper: &v[i], or nil where open
	for i, e := range [2]ast.Expr{s.Lo, s.Hi} {
		if e == nil {
			continue
		}
		var ok bool
		if v[i], ok = c.constVal(e); !ok || isNaN(v[i]) {
			return nil, 0, false, nil
		}
		b[i] = &v[i]
	}
	ix, err := t.Index(s.Col.Column, storage.OrderedIndex)
	if ix == nil {
		return nil, 0, false, err
	}
	for _, x := range b {
		if x != nil && x.IsNull() {
			return []int32{}, 0, true, nil // comparisons against NULL are never true
		}
	}
	for _, x := range b {
		if x != nil && !ix.Usable(x.K) {
			return nil, 0, false, nil
		}
	}
	// Count first (two binary searches): an unselective range would fail
	// the cost rule anyway, so don't pay for materializing its ids.
	if ix.RangeCount(b[0], b[1], s.LoIncl, s.HiIncl)*storage.IndexRowCost >= t.NumRows() {
		return nil, 0, false, nil
	}
	return notNil(ix.Range(b[0], b[1], s.LoIncl, s.HiIncl)), 1, true, nil
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

// probedBuild serves a hash-join build side from the base table's hash index
// on a join key, when the side is one unfiltered base-table scan and the key
// probeKey picks has one: nothing is drained, and each probe batch fetches
// just the rows its keys' postings name (tableProbe). On a join step (step)
// the key may be one of several, and the probe checks the others on the rows
// it fetched (probeIterator.recheck). A build read by whole-key lookup
// (joinBuild.lookup, a subquery's) must have a single key. A filtered side, a
// join or a derived table drains instead, as does every side of a table
// that declares no index. The one index lookup is charged here, where the build is chosen.
func (c *execCtx) probedBuild(p *pipeline, keys []ast.Expr, step bool) (*joinBuild, error) {
	t := p.src.t
	if t == nil || !t.HasIndexes() || (!step && len(keys) != 1) {
		return nil, nil
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
		return nil, nil
	}
	ix, err := t.Index(t.Schema.Cols[col(keys[at].(*ast.ColumnRef))].Name, storage.HashIndex)
	if ix == nil {
		return nil, err
	}
	c.chargeIndex(1, 0)
	return &joinBuild{layout: p.layout, at: at, ix: &tableProbe{t: t, cols: p.src.cols, ix: ix}}, nil
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
