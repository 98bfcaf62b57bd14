package engine

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/value"
)

// Join planning and the hash-join build. planJoin classifies the WHERE
// conjuncts of a comma-join FROM into per-table filters, hash-join edges,
// and residual predicates, then fixes the greedy join order; prepare
// (engine.go) builds each step's build side (buildSide) and the probe side
// streams through probeIterators (stream.go).
//
// A build side that is an unfiltered base table with a hash index on its one
// join key is never drained: each probe batch fetches the rows its keys point
// to (tableProbe). Any other build side is drained and partitioned by key
// hash across workers into per-partition maps — no global lock, and a key's
// row list is always in build-side row order regardless of worker count —
// while the probe side cuts into morsels like every other chain
// (parallel.go).

// joinStep is one step of the greedy join order: attach FROM index next to
// the accumulated relation. Empty key lists mean a cross join; otherwise
// leftKeys evaluate against the accumulated (probe) side and rightKeys
// against rels[next] (the build side).
type joinStep struct {
	next      int
	leftKeys  []ast.Expr
	rightKeys []ast.Expr

	// Filled in by prepare.
	probe *relation       // columns of the incoming (probe-side) rows
	build *joinBuild      // hash step: the build side
	right [][]value.Value // cross step: the whole right side, drained
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

// joinBuild is a hash-join build side, in one of two forms. A hashed build
// drains its side and partitions the rows into maps by key hash; each
// partition map is owned (built and read) without locks, and a key's rows
// live entirely in one partition, appended in build-side row order, so probe
// output is independent of the partition count. An index-probed build
// (ix != nil, chosen by probedBuild) drains nothing: it fetches the rows a
// probe's keys point to through the base table's hash index, and a posting
// list is ascending row ids — the same order.
type joinBuild struct {
	layout *relation // columns of the build rows
	parts  []map[string][][]value.Value
	ix     *tableProbe // non-nil: rows are fetched through the index
}

// lookup returns the build rows matching one (non-NULL) probe key, in
// build-side row order; an index-probed build fetches them for c.
func (b *joinBuild) lookup(c *execCtx, key string) ([][]value.Value, error) {
	if b.ix != nil {
		return b.ix.fetch(c.stats, b.ix.postings(key), nil)
	}
	return b.parts[joinPartition(key, len(b.parts))][key], nil
}

// tableProbe is the index-probed build over an unfiltered base table: the
// table, the schema positions its rows carry (rowSource.cols) and the hash
// index on the join key. Nothing is read up front. A probe batch looks up
// its keys' postings and fetches the rows no earlier batch fetched with one
// FetchCols call, in ascending row-id order, and gets its rows back in
// posting order. Fetches are random reads, so a fill that would take the
// bytes they read — priced at the bytes per row fetches have read so far —
// to the table's physical size (Table.ScanBytes) drains the table once
// instead, and later probes read that copy. In memory the price of a row is
// its share of Table.Bytes, so only a fill that needs every remaining row
// drains.
//
// The chains of a block's morsels, and the rows that evaluate a subquery,
// share one build: fills serialize on mu, so every row is fetched once and
// charged once, whichever chain reached it first. RowsScanned counts each
// build row the first time a probe reaches it, fetched or read from the
// drained copy — the same count on every backend. BytesScanned is the
// physical bytes the fetches and the drain read on a paged table, and the
// row-proportional bytes of the rows reached in memory, as scanIterator
// charges a scan.
type tableProbe struct {
	t    *storage.Table
	cols []int
	ix   *storage.Index

	mu      sync.Mutex
	slot    []int32         // by row id: 1 + position in rows; -1 once reached after the drain; 0 before
	rows    [][]value.Value // the fetched rows
	all     [][]value.Value // the drained table, by row id; nil before the switch
	reached int             // rows charged so far
	read    int64           // bytes the fetches have read
	need    []int32         // fetch's scratch: the ids not reached yet
}

// postings returns the ascending row ids that match one probe key: a
// single-key exprKey renders HashKey plus one separator byte, and the index
// posts under the bare HashKey.
func (p *tableProbe) postings(key string) []int32 {
	return p.ix.PostingsKey(key[:len(key)-1])
}

// fetch appends to dst the rows ids names, in order, after reaching the ones
// no earlier probe reached, charged to st.
func (p *tableProbe) fetch(st *Stats, ids []int32, dst [][]value.Value) ([][]value.Value, error) {
	if len(ids) == 0 {
		return dst, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.slot == nil {
		p.slot = make([]int32, p.t.NumRows())
	}
	need := p.need[:0]
	for _, id := range ids {
		if p.slot[id] == 0 {
			p.slot[id] = -1 // queued: a repeated id is needed once
			need = append(need, id)
		}
	}
	p.need = need
	if len(need) > 0 {
		if err := p.reach(st, need); err != nil {
			for _, id := range need {
				p.slot[id] = 0
			}
			return nil, err
		}
	}
	dst = slices.Grow(dst, len(ids))
	for _, id := range ids {
		if s := p.slot[id]; s > 0 {
			dst = append(dst, p.rows[s-1])
		} else {
			dst = append(dst, p.all[id])
		}
	}
	return dst, nil
}

// reach makes the rows need names readable — fetched, or in the drained
// copy — and charges them to st.
func (p *tableProbe) reach(st *Stats, need []int32) error {
	var phys int64
	if p.all == nil {
		slices.Sort(need)
		var price float64 // what this fill would read, at the fetches' bytes per row
		if len(p.rows) > 0 {
			price = float64(p.read) * float64(len(need)) / float64(len(p.rows))
		}
		var err error
		if float64(p.read)+price >= float64(p.t.ScanBytes()) {
			p.all, phys, err = p.t.ScanCols(0, p.t.NumRows(), p.cols, nil)
		} else {
			phys, err = p.fetchRows(need)
		}
		if err != nil {
			return err
		}
	}
	n, before := int64(p.t.NumRows()), int64(p.reached)
	p.reached += len(need)
	if !p.t.Paged() {
		phys = p.t.Bytes*int64(p.reached)/n - p.t.Bytes*before/n
	}
	st.RowsScanned += int64(len(need))
	st.BytesScanned += phys
	if p.all == nil {
		p.read += phys
	}
	return nil
}

// fetchRows fetches the ascending ids need and files each row under its id,
// returning the physical bytes read.
func (p *tableProbe) fetchRows(need []int32) (int64, error) {
	rows, phys, err := p.t.FetchCols(need, p.cols, nil)
	if err != nil {
		return 0, err
	}
	base := len(p.rows)
	if base == 0 {
		p.rows = rows // the batch is this call's own
	} else {
		p.rows = append(p.rows, rows...)
	}
	for i, id := range need {
		p.slot[id] = int32(base + i + 1)
	}
	return phys, nil
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
// conjuncts residual) and the relation is more than one morsel,
// construction runs in two lock-free phases with one partition per morsel:
// each morsel evaluates its rows' keys and partition ids (NULL keys get
// partition -1 and are skipped), then each partition collects the rows it
// owns, scanning in row order.
func (c *execCtx) buildJoinMap(right *relation, rightKeys []ast.Expr, outer *env) (*joinBuild, error) {
	n := len(right.rows)
	parts := c.morselCount(n)
	if parts <= 1 || outer != nil {
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
	if _, err := morselCollect(c, n, func(sc *execCtx, lo, hi int) (struct{}, error) {
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
			partIDs[i] = int32(joinPartition(key, parts))
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}

	maps := make([]map[string][][]value.Value, parts)
	if err := parallelFor(parts, func(p int) error {
		m := make(map[string][][]value.Value, n/parts+1)
		for i, id := range partIDs {
			if id == int32(p) {
				m[keys[i]] = append(m[keys[i]], right.rows[i])
			}
		}
		maps[p] = m
		return nil
	}); err != nil {
		return nil, err
	}
	return &joinBuild{layout: &relation{cols: right.cols}, parts: maps}, nil
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
