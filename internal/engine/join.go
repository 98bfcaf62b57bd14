package engine

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/value"
)

// Join planning and the hash-join build. planJoin classifies the WHERE
// conjuncts of a comma-join FROM into per-table filters, hash-join edges,
// and residual predicates, then fixes the greedy join order; prepare
// (engine.go) drains each step's build side and the probe side streams
// through probeIterators (stream.go).
//
// The hash-join build side is partitioned by key hash across workers into
// per-partition maps — no global lock, and a key's row list is always in
// build-side row order regardless of worker count — while the probe side
// shards by contiguous row ranges like every other chain (parallel.go).

// joinStep is one step of the greedy join order: attach FROM index next to
// the accumulated relation. Empty key lists mean a cross join; otherwise
// leftKeys evaluate against the accumulated (probe) side and rightKeys
// against rels[next] (the build side).
type joinStep struct {
	next      int
	leftKeys  []ast.Expr
	rightKeys []ast.Expr

	// Filled in by prepare once the build side has been drained.
	probe *relation       // columns of the incoming (probe-side) rows
	build *joinBuild      // hash step: the partitioned build side
	right [][]value.Value // cross step: the whole right side
}

// joinPlan is the classified FROM/WHERE of one query block.
type joinPlan struct {
	perTable [][]ast.Expr // single-table filters, by FROM index
	steps    []joinStep   // greedy join order starting from FROM index 0
	residual []ast.Expr   // predicates to apply after the join
}

// joinEdge is a usable equi-join predicate: an equality whose two sides
// each reference exactly one (distinct) table.
type joinEdge struct {
	expr   *ast.BinaryExpr
	lt, rt int // FROM index of each side
}

// planJoin classifies q's WHERE conjuncts and derives the join order. rels
// supply only column layouts (for unqualified-column resolution).
func planJoin(q *ast.Query, refNames []string, rels []*relation) (*joinPlan, error) {
	plan := &joinPlan{perTable: make([][]ast.Expr, len(rels))}
	var edges []joinEdge
	for _, e := range ast.Conjuncts(q.Where) {
		if ast.HasSubquery(e) {
			plan.residual = append(plan.residual, e)
			continue
		}
		tables := map[int]bool{}
		for _, col := range ast.Columns(e) {
			idx, err := resolveTable(col, refNames, rels)
			if err != nil {
				return nil, err
			}
			if idx >= 0 {
				tables[idx] = true
			}
		}
		switch {
		case len(tables) == 0:
			// No table columns: constant or outer-only predicate; keep it
			// residual so correlated envs resolve.
			plan.residual = append(plan.residual, e)
		case len(tables) == 1:
			for idx := range tables {
				plan.perTable[idx] = append(plan.perTable[idx], e)
			}
		default:
			if edge, ok := asJoinEdge(e, refNames, rels); ok {
				edges = append(edges, edge)
				continue
			}
			// Multi-table inequality, three-or-more-table predicate, or an
			// equality with a mixed-side operand (e.g. a.x = a.y + b.z):
			// neither side can be evaluated against a single relation, so
			// the predicate filters the joined rows instead.
			plan.residual = append(plan.residual, e)
		}
	}

	// Greedy join order: start from table 0, repeatedly attach a table
	// connected by at least one usable edge; cross join as a last resort.
	joinedSet := map[int]bool{0: true}
	used := make([]bool, len(edges))
	for len(joinedSet) < len(rels) {
		next := -1
		for i, e := range edges {
			if used[i] {
				continue
			}
			if joinedSet[e.lt] != joinedSet[e.rt] {
				if joinedSet[e.lt] {
					next = e.rt
				} else {
					next = e.lt
				}
				break
			}
		}
		if next < 0 {
			// No connecting edge: cross join the lowest unjoined table.
			for i := range rels {
				if !joinedSet[i] {
					next = i
					break
				}
			}
			plan.steps = append(plan.steps, joinStep{next: next})
			joinedSet[next] = true
			continue
		}
		// Gather every edge connecting joinedSet to `next`, oriented so the
		// left side references the joined set and the right side `next`.
		step := joinStep{next: next}
		for i, e := range edges {
			if used[i] {
				continue
			}
			l, r := e.expr.Left, e.expr.Right
			switch {
			case e.rt == next && joinedSet[e.lt]:
				// already oriented
			case e.lt == next && joinedSet[e.rt]:
				l, r = r, l
			default:
				continue
			}
			step.leftKeys = append(step.leftKeys, l)
			step.rightKeys = append(step.rightKeys, r)
			used[i] = true
		}
		plan.steps = append(plan.steps, step)
		joinedSet[next] = true
	}

	// Any edges never used (e.g. both sides joined via other paths) become
	// residual filters.
	for i, e := range edges {
		if !used[i] {
			plan.residual = append(plan.residual, e.expr)
		}
	}
	return plan, nil
}

// asJoinEdge reports whether e is a hash-joinable equality: each side must
// reference exactly one table, and the two sides different ones. An
// equality where one side mixes tables (a.x = a.y + b.z) is NOT an edge —
// the mixed side cannot be evaluated against a single relation — and must
// stay a residual predicate.
func asJoinEdge(e ast.Expr, refNames []string, rels []*relation) (joinEdge, bool) {
	be, ok := e.(*ast.BinaryExpr)
	if !ok || be.Op != ast.OpEq {
		return joinEdge{}, false
	}
	lt, err := sideTable(be.Left, refNames, rels)
	if err != nil || lt < 0 {
		return joinEdge{}, false
	}
	rt, err := sideTable(be.Right, refNames, rels)
	if err != nil || rt < 0 || rt == lt {
		return joinEdge{}, false
	}
	return joinEdge{expr: be, lt: lt, rt: rt}, true
}

// resolveTable maps a column reference to its FROM index, or -1 (outer
// ref). An unqualified name that resolves in more than one FROM relation is
// an error (standard SQL ambiguity semantics) — binding it silently to the
// first match would filter or join the wrong table.
func resolveTable(col *ast.ColumnRef, refNames []string, rels []*relation) (int, error) {
	if col.Column == "*" {
		return -1, nil
	}
	if col.Table != "" {
		for i, n := range refNames {
			if n == col.Table {
				return i, nil
			}
		}
		return -1, nil
	}
	found := -1
	for i, r := range rels {
		if idx, err := r.indexOf("", col.Column); err == nil && idx >= 0 {
			if found >= 0 {
				return -1, fmt.Errorf("engine: column reference is ambiguous: %s (in %s and %s)",
					col.Column, refNames[found], refNames[i])
			}
			found = i
		}
	}
	return found, nil
}

// sideTable returns the single FROM index an expression references, or -1
// when it references none or mixes several.
func sideTable(e ast.Expr, refNames []string, rels []*relation) (int, error) {
	idx := -1
	for _, col := range ast.Columns(e) {
		t, err := resolveTable(col, refNames, rels)
		if err != nil {
			return -1, err
		}
		if t < 0 {
			continue
		}
		if idx >= 0 && idx != t {
			return -1, nil
		}
		idx = t
	}
	return idx, nil
}

// joinBuild is a hash-join build side: either a materialized map
// partitioned by key hash, or (ix != nil) the base table's hash index
// serving lookups directly, with no map ever built. Each partition map is
// owned (built and read) without locks; a key's rows live entirely in one
// partition, appended in build-side row order, so probe output is
// independent of the partition count — and a posting list is ascending row
// ids, which is the same order.
type joinBuild struct {
	layout *relation // columns of the build rows
	parts  []map[string][][]value.Value
	rows   [][]value.Value // index-backed build: the base relation's rows
	ix     *storage.Index  // non-nil = lookups resolve through the index
}

// lookup returns the build rows matching one (non-NULL) probe key.
func (b *joinBuild) lookup(key string) [][]value.Value {
	if b.ix != nil {
		// Single-key exprKey renders HashKey + one separator byte; the
		// index posts under the bare HashKey.
		ids := b.ix.PostingsKey(key[:len(key)-1])
		if len(ids) == 0 {
			return nil
		}
		out := make([][]value.Value, len(ids))
		for i, id := range ids {
			out[i] = b.rows[id]
		}
		return out
	}
	return b.parts[joinPartition(key, len(b.parts))][key]
}

// joinPartition assigns a key to one of n partitions (FNV-1a).
func joinPartition(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// buildJoinMap hashes the build side of one join. When the block is
// uncorrelated (join keys never contain subqueries: planJoin leaves those
// conjuncts residual) and the relation is large enough, construction is sharded
// in two lock-free phases: contiguous row-range workers evaluate every
// row's key and its partition id (NULL keys get partition -1 and are
// skipped), then one worker per partition collects the rows it owns,
// scanning in row order.
func (c *execCtx) buildJoinMap(right *relation, rightKeys []ast.Expr, outer *env) (*joinBuild, error) {
	if b := c.indexedBuild(right, rightKeys); b != nil {
		return b, nil
	}
	n := len(right.rows)
	shards := c.shardCount(n)
	if shards <= 1 || outer != nil {
		m := make(map[string][][]value.Value, n)
		for _, row := range right.rows {
			en := &env{rel: right, row: row, outer: outer, ctx: c}
			key, null, err := exprKey(en, rightKeys)
			if err != nil {
				return nil, err
			}
			if null {
				continue
			}
			m[key] = append(m[key], row)
		}
		return &joinBuild{layout: &relation{cols: right.cols}, parts: []map[string][][]value.Value{m}}, nil
	}

	keys := make([]string, n)
	partIDs := make([]int32, n) // -1 = NULL key; hashed once, in phase 1
	if _, err := shardedCollect(c, shards, n, func(sc *execCtx, lo, hi int) (struct{}, error) {
		for i := lo; i < hi; i++ {
			en := &env{rel: right, row: right.rows[i], outer: outer, ctx: sc}
			key, null, err := exprKey(en, rightKeys)
			if err != nil {
				return struct{}{}, err
			}
			if null {
				partIDs[i] = -1
				continue
			}
			keys[i] = key
			partIDs[i] = int32(joinPartition(key, shards))
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}

	parts := make([]map[string][][]value.Value, shards)
	if err := parallelDo(shards, func(p int) error {
		m := make(map[string][][]value.Value, n/shards+1)
		for i, id := range partIDs {
			if id == int32(p) {
				m[keys[i]] = append(m[keys[i]], right.rows[i])
			}
		}
		parts[p] = m
		return nil
	}); err != nil {
		return nil, err
	}
	return &joinBuild{layout: &relation{cols: right.cols}, parts: parts}, nil
}

// exprKey evaluates key expressions into a composite equality key: each
// value's HashKey followed by a separator byte. null reports a NULL
// component — SQL equality never matches it, so callers skip the row.
func exprKey(en *env, keys []ast.Expr) (key string, null bool, err error) {
	var b strings.Builder
	for _, k := range keys {
		v, err := eval(en, k)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", true, nil
		}
		b.WriteString(v.HashKey())
		b.WriteByte(0)
	}
	return b.String(), false, nil
}

// rowKey is exprKey over values already computed: the same key bytes.
func rowKey(vals []value.Value) (key string, null bool) {
	var b strings.Builder
	for _, v := range vals {
		if v.IsNull() {
			return "", true
		}
		b.WriteString(v.HashKey())
		b.WriteByte(0)
	}
	return b.String(), false
}
