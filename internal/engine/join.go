package engine

import (
	"slices"
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

// planJoin classifies q's WHERE conjuncts and derives the join order. A
// column binds to one of q's FROM entries or, correlated, to none of them
// (ast.Scope with no parent).
func planJoin(q *ast.Query, cat ast.Catalog) (*joinPlan, error) {
	s := &ast.Scope{Block: q, Cat: cat}
	n := len(q.From)
	plan := &joinPlan{perTable: make([][]ast.Expr, n)}
	var edges []joinEdge
	for _, e := range ast.Conjuncts(q.Where) {
		if ast.HasSubquery(e) {
			plan.residual = append(plan.residual, e)
			continue
		}
		tables, err := entries(s, e)
		if err != nil {
			return nil, err
		}
		switch {
		case len(tables) == 0:
			// No table columns: constant or outer-only predicate; keep it
			// residual so correlated envs resolve.
			plan.residual = append(plan.residual, e)
		case len(tables) == 1:
			plan.perTable[tables[0]] = append(plan.perTable[tables[0]], e)
		default:
			if edge, ok := asJoinEdge(s, e); ok {
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
	for len(joinedSet) < n {
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
			for i := 0; i < n; i++ {
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
func asJoinEdge(s *ast.Scope, e ast.Expr) (joinEdge, bool) {
	be, ok := e.(*ast.BinaryExpr)
	if !ok || be.Op != ast.OpEq {
		return joinEdge{}, false
	}
	lt, err := entries(s, be.Left)
	if err != nil || len(lt) != 1 {
		return joinEdge{}, false
	}
	rt, err := entries(s, be.Right)
	if err != nil || len(rt) != 1 || rt[0] == lt[0] {
		return joinEdge{}, false
	}
	return joinEdge{expr: be, lt: lt[0], rt: rt[0]}, true
}

// entries lists the FROM indexes of s's block that e's columns bind to, each
// once, in order of first reference.
func entries(s *ast.Scope, e ast.Expr) ([]int, error) {
	var out []int
	for _, col := range ast.Columns(e) {
		if col.Column == "*" {
			continue
		}
		b, err := s.Resolve(col)
		if err != nil {
			return nil, err
		}
		if b.Block != nil && !slices.Contains(out, b.Entry) {
			out = append(out, b.Entry)
		}
	}
	return out, nil
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
