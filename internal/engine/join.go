package engine

import (
	"slices"
	"sync"

	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/value"
)

// Join planning and the hash-join build. planJoin classifies the WHERE
// conjuncts of a comma-join FROM into per-table filters, hash-join edges,
// and residual predicates, adds the single-table filters that ORs spanning
// tables imply (implyFilters), and chooses the join order from estimates
// (joinEst); prepare (engine.go) builds each step's build side (buildSide)
// and the probe side streams through probeIterators (stream.go).
//
// The order. Every FROM entry is tried as the start — the probe side, whose
// rows stream — and grown greedily: each step attaches the connected entry
// whose step costs least, and cross joins the lowest unjoined entry only
// when none is connected. An order costs the start's estimated rows plus,
// per step, the rows its build side reads — all of them hashed, or, where
// the build can be index-probed, only the rows its probes fetch — and its
// estimated rows out (joinEst); the cheapest order wins. Ties go to the
// lower start and, within a start, to the entry the first connecting edge
// names, so equal estimates give the FROM order, and the order depends on
// the data and the statement alone — not on the worker count, and not on
// whether the deployment built indexes.
//
// A build side that is an unfiltered base table with a hash index on a join
// key column is never drained: each probe batch fetches the rows its keys
// point to (tableProbe). On a composite key the probe goes through the key
// column with the most distinct values (probeKey) and rechecks the other
// keys on the fetched rows. Any other build side is drained and partitioned
// by key hash across workers into per-partition maps — no global lock, and a
// key's row list is always in build-side row order regardless of worker
// count — while the probe side cuts into morsels like every other chain
// (parallel.go).

// joinStep is one step of the join order: attach FROM index next to the
// accumulated relation. Empty key lists mean a cross join; otherwise
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
	start    int          // FROM index of the probe side
	perTable [][]ast.Expr // single-table filters by FROM index, implied ones included
	steps    []joinStep   // the join order, growing from start
	residual []ast.Expr   // predicates to apply after the join
}

// joinEdge is a usable equi-join predicate: an equality whose two sides
// each reference exactly one (distinct) table.
type joinEdge struct {
	expr   *ast.BinaryExpr
	lt, rt int // FROM index of each side
}

// planJoin classifies q's WHERE conjuncts and chooses the join order from
// the statistics of q's sources (srcs, by FROM index). A column binds to one
// of q's FROM entries or, correlated, to none of them (ast.Scope with no
// parent).
func planJoin(q *ast.Query, cat ast.Catalog, srcs []*rowSource) (*joinPlan, error) {
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
			// the predicate filters the joined rows instead — after
			// lending each table what it implies on its own.
			if err := implyFilters(s, e, plan.perTable); err != nil {
				return nil, err
			}
			plan.residual = append(plan.residual, e)
		}
	}

	est := newJoinEst(s, srcs, plan.perTable)
	best := 0.0
	var used []bool
	for start := 0; start < n; start++ {
		steps, u, cost := est.grow(start, edges)
		if start == 0 || cost < best*(1-costTie) {
			best, plan.start, plan.steps, used = cost, start, steps, u
		}
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

// implyFilters lends the FROM entries the single-table predicates a
// multi-table conjunct e implies. When e is an OR of conjunctions and every
// disjunct constrains entry t on its own, the OR of those parts — each the
// AND of a disjunct's conjuncts that name t alone — is appended to
// perTable[t]. Wherever e is TRUE some disjunct is, and so is its part, so
// the added filter drops only rows e would drop, under three-valued logic
// too; e itself stays residual. Anything else — NOT (… OR …) included —
// implies nothing. The parts are e's own subtrees, so DET and OPE
// ciphertext constants match as they do in e.
func implyFilters(s *ast.Scope, e ast.Expr, perTable [][]ast.Expr) error {
	ds := disjuncts(e)
	if len(ds) < 2 {
		return nil
	}
	parts := make([][]ast.Expr, len(perTable)) // by entry: one part per disjunct so far
	for i, d := range ds {
		own := make([][]ast.Expr, len(perTable))
		for _, c := range ast.Conjuncts(d) {
			tables, err := entries(s, c)
			if err != nil {
				return err
			}
			if len(tables) == 1 {
				own[tables[0]] = append(own[tables[0]], c)
			}
		}
		for t := range parts {
			if len(parts[t]) == i && len(own[t]) > 0 {
				parts[t] = append(parts[t], ast.AndAll(own[t]))
			}
		}
	}
	for t, ps := range parts {
		if len(ps) == len(ds) {
			perTable[t] = append(perTable[t], orAll(ps))
		}
	}
	return nil
}

// disjuncts splits a predicate into its top-level OR terms.
func disjuncts(e ast.Expr) []ast.Expr {
	if b, ok := e.(*ast.BinaryExpr); ok && b.Op == ast.OpOr {
		return append(disjuncts(b.Left), disjuncts(b.Right)...)
	}
	return []ast.Expr{e}
}

// orAll combines two or more predicates into a disjunction.
func orAll(es []ast.Expr) ast.Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = &ast.BinaryExpr{Op: ast.OpOr, Left: out, Right: e}
	}
	return out
}

// costTie is the relative margin within which two order costs tie: the
// sums of one set of estimates in another order may differ in their last
// bits, and that must not decide an order.
const costTie = 1e-9

// joinEst estimates a block's FROM entries and joins. An entry's rows are
// its row count times the selectivity of its filters by ast.Selectivity,
// the rules the planner's cost model uses too: where a column's NDV is
// missing — a derived or temp table's, say — an equality or IN element
// keeps every row, so a block with no statistics ties and keeps the FROM
// order. The filters never name a subquery (planJoin leaves those
// residual), so the subquery rules do not arise. A join emits |R|·|S|
// divided, per key pair, by the larger NDV of its two columns.
type joinEst struct {
	s        *ast.Scope
	srcs     []*rowSource
	perTable [][]ast.Expr
	rows     []float64          // each entry's estimated rows after its own filters
	ndvs     map[ast.Expr]int64 // ndv's answers, by column reference
}

func newJoinEst(s *ast.Scope, srcs []*rowSource, perTable [][]ast.Expr) *joinEst {
	j := &joinEst{s: s, srcs: srcs, perTable: perTable, rows: make([]float64, len(srcs)), ndvs: map[ast.Expr]int64{}}
	for i, src := range srcs {
		j.rows[i] = float64(src.n())
		for _, f := range perTable[i] {
			j.rows[i] *= ast.Selectivity(f, j.ndv)
		}
	}
	return j
}

// grow builds the greedy order from start and returns its steps, the edges
// they use (by index) and its cost.
func (j *joinEst) grow(start int, edges []joinEdge) ([]joinStep, []bool, float64) {
	n := len(j.rows)
	joined := make([]bool, n)
	joined[start] = true
	used := make([]bool, len(edges))
	acc := j.rows[start]
	cost := acc
	steps := make([]joinStep, 0, n-1)
	for len(steps) < n-1 {
		var step joinStep
		best, out := -1.0, 0.0
		tried := make([]bool, n)
		for i, e := range edges {
			if used[i] || joined[e.lt] == joined[e.rt] {
				continue
			}
			next := e.rt
			if joined[next] {
				next = e.lt
			}
			if tried[next] {
				continue
			}
			tried[next] = true
			cand := connect(edges, used, joined, next)
			c, o := j.stepCost(acc, cand)
			if best < 0 || c < best*(1-costTie) {
				step, best, out = cand, c, o
			}
		}
		if best < 0 {
			// No connecting edge: cross join the lowest unjoined table.
			step.next = slices.Index(joined, false)
			out = acc * j.rows[step.next]
			best = j.rows[step.next] + out
		}
		for i, e := range edges {
			if !used[i] && (e.lt == step.next && joined[e.rt] || e.rt == step.next && joined[e.lt]) {
				used[i] = true
			}
		}
		joined[step.next] = true
		steps = append(steps, step)
		acc, cost = out, cost+best
	}
	return steps, used, cost
}

// connect gathers every unused edge between the joined set and next into
// one step, oriented so the left keys reference the joined set and the
// right keys next.
func connect(edges []joinEdge, used, joined []bool, next int) joinStep {
	step := joinStep{next: next}
	for i, e := range edges {
		if used[i] {
			continue
		}
		l, r := e.expr.Left, e.expr.Right
		switch {
		case e.rt == next && joined[e.lt]:
			// already oriented
		case e.lt == next && joined[e.rt]:
			l, r = r, l
		default:
			continue
		}
		step.leftKeys = append(step.leftKeys, l)
		step.rightKeys = append(step.rightKeys, r)
	}
	return step
}

// stepCost estimates one hash step over acc incoming rows: its cost — the
// rows its build side reads plus its rows out — and its rows out. A hashed
// build reads its whole side; one of the shape an index serves (probeKey)
// hashes nothing and reads the rows its probes fetch through the key's
// postings, at most its table, which tableProbe drains past that. The shape
// is the statement's, not whether this deployment built the index, so an
// indexed deployment and an index-free one choose the same order: index use
// changes what a build reads, never the rows or their order. An index-free
// deployment therefore hashes such a build in full, where the estimate
// counted its fetches.
func (j *joinEst) stepCost(acc float64, st joinStep) (cost, out float64) {
	div := 1.0
	for i := range st.leftKeys {
		div *= float64(max(1, j.ndv(st.leftKeys[i]), j.ndv(st.rightKeys[i])))
	}
	build := j.rows[st.next]
	out = acc * build / div
	t := j.srcs[st.next].t
	if at := probeKey(t, len(j.perTable[st.next]) > 0, st.rightKeys, func(cr *ast.ColumnRef) int {
		if b, err := j.s.Resolve(cr); err == nil && b.Block != nil && b.Entry == st.next {
			return t.Schema.ColIndex(cr.Column)
		}
		return -1
	}); at >= 0 {
		build = min(build, acc*build/float64(max(1, j.ndv(st.rightKeys[at]))))
	}
	return build + out, out
}

// ndv is the distinct-value count of a column of one of the block's base
// tables, or 0 when e is no such column or the table keeps no statistics.
func (j *joinEst) ndv(e ast.Expr) int64 {
	cr, ok := e.(*ast.ColumnRef)
	if !ok {
		return 0
	}
	if d, ok := j.ndvs[cr]; ok {
		return d
	}
	var d int64
	if b, err := j.s.Resolve(cr); err == nil && b.Block != nil && j.srcs[b.Entry].t != nil {
		m, _ := j.srcs[b.Entry].t.Meta(cr.Column)
		d = m.NDV
	}
	j.ndvs[cr] = d
	return d
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
// drains its side and partitions the rows by key hash (joinPart); each
// partition is owned (built and read) without locks, and a key's rows live
// entirely in one partition, in build-side row order, so probe output is
// independent of the partition count. An index-probed build
// (ix != nil, chosen by probedBuild) drains nothing: it fetches the rows a
// probe's keys point to through the base table's hash index, and a posting
// list is ascending row ids — the same order.
type joinBuild struct {
	layout *relation // columns of the build rows
	parts  []joinPart
	ix     *tableProbe // non-nil: rows are fetched through the index
	at     int         // the key ix indexes, by position among the build's keys
}

// lookup returns the build rows matching one (non-NULL) probe key, in
// build-side row order. An index-probed build fetches them for c into c's
// row buffer, which the caller holds until it hands it back with release; a
// probe nested in the rows' use finds the buffer taken and fetches into a
// fresh one.
func (b *joinBuild) lookup(c *execCtx, key []byte) ([][]value.Value, error) {
	if b.ix != nil {
		buf := c.rowBuf
		c.rowBuf = nil
		return b.ix.fetch(c.stats, b.ix.ix.PostingsKey(key), buf[:0])
	}
	p := &b.parts[joinPartition(key, len(b.parts))]
	if s, ok := p.slot[string(key)]; ok {
		return p.rows[s], nil
	}
	return nil, nil
}

// release hands rows, which lookup returned for c, back to c as its row
// buffer when they were fetched into it: a hashed build's rows are its own.
func (b *joinBuild) release(c *execCtx, rows [][]value.Value) {
	if b.ix != nil && rows != nil {
		c.rowBuf = rows[:0]
	}
}

// joinPart is one partition of a hashed build: slot maps a key to its
// position in rows, which holds the key's build rows in build-side order.
type joinPart struct {
	slot map[string]int32
	rows [][][]value.Value
}

// newJoinPart files the build rows of partition p — rows[i] when
// partIDs[i] == p, under keys[i] — copying each distinct key once and
// holding every key's rows in windows of one exact-size arena.
func newJoinPart(rows [][]value.Value, keys [][]byte, partIDs []int32, p int32, hint int) joinPart {
	jp := joinPart{slot: make(map[string]int32, hint)}
	owned := 0
	for _, id := range partIDs {
		if id == p {
			owned++
		}
	}
	slots := make([]int32, 0, owned) // per owned row
	var counts []int32               // per key
	for i, id := range partIDs {
		if id != p {
			continue
		}
		s, ok := jp.slot[string(keys[i])]
		if !ok {
			s = int32(len(counts))
			jp.slot[string(keys[i])] = s
			counts = append(counts, 0)
		}
		counts[s]++
		slots = append(slots, s)
	}
	arena := make([][]value.Value, len(slots))
	jp.rows = make([][][]value.Value, len(counts))
	off := 0
	for s, n := range counts {
		jp.rows[s] = arena[off : off : off+int(n)]
		off += int(n)
	}
	j := 0
	for i, id := range partIDs {
		if id == p {
			jp.rows[slots[j]] = append(jp.rows[slots[j]], rows[i])
			j++
		}
	}
	return jp
}

// tableProbe is the index-probed build over an unfiltered base table: the
// table, the schema positions its rows carry (rowSource.cols) and the hash
// index on the join key. Nothing is read up front. A probe batch looks up
// its keys' postings and fetches the rows no earlier batch fetched with one
// FetchCols call, in ascending row-id order, and gets its rows back in
// posting order. Fetches are random reads, so a fill that would take the
// page bytes they pinned — priced at the bytes per row fetches have pinned
// so far, cached or not — to the table's physical size (Table.ScanBytes)
// drains the table once instead, and later probes read that copy. In
// memory the price of a row is its share of Table.Bytes, so only a fill
// that needs every remaining row drains.
//
// The chains of a block's morsels, and the rows that evaluate a subquery,
// share one build: fills serialize on mu, so every row is fetched once and
// charged once, whichever chain reached it first. RowsScanned counts each
// build row the first time a probe reaches it, fetched or read from the
// drained copy — the same count on every backend. BytesScanned is the
// bytes of the pages the fetches and the drain pinned on a paged table,
// cached or not, and the row-proportional bytes of the rows reached in
// memory, as scanIterator charges a scan.
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
			p.all, phys, err = p.t.ScanCols(0, p.t.NumRows(), p.cols, nil, nil)
		} else {
			phys, err = p.fetchRows(need)
		}
		if err != nil {
			return err
		}
	}
	before := p.reached
	p.reached += len(need)
	charge := p.t.ReadCost(before, p.reached, phys)
	st.RowsScanned += int64(len(need))
	st.BytesScanned += charge
	if p.all == nil {
		p.read += charge
	}
	return nil
}

// fetchRows fetches the ascending ids need and files each row under its id,
// returning the page bytes read.
func (p *tableProbe) fetchRows(need []int32) (int64, error) {
	rows, phys, err := p.t.FetchCols(need, p.cols, nil, nil)
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
func joinPartition[K string | []byte](key K, n int) int {
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

// buildJoinMap hashes the build side of one join in two phases. The first
// evaluates each row's key into an arena, with its partition id (-1 for a
// NULL key, which SQL equality never matches); the second files each
// partition's rows (newJoinPart). When the block is uncorrelated (join keys
// never contain subqueries: planJoin leaves those conjuncts residual) and
// the relation is more than one morsel, both phases run lock-free with one
// partition per morsel; otherwise there is one partition, built on c.
func (c *execCtx) buildJoinMap(right *relation, rightKeys []ast.Expr, outer *env) (*joinBuild, error) {
	n := len(right.rows)
	parts := c.morselCount(n)
	if outer != nil {
		parts = 1
	}
	keys := make([][]byte, n) // each a capped window of its morsel's arena
	partIDs := make([]int32, n)
	keyRows := func(sc *execCtx, lo, hi int) (struct{}, error) {
		// The arena is sized once for the rows left, at the widest key so far
		// (an Int key's width, at first): a key that outgrows it starts a
		// new chunk, and the windows cut so far keep the old one.
		var arena []byte
		widest := 8
		en := &env{rel: right, outer: outer, ctx: sc}
		for i := lo; i < hi; i++ {
			en.row = right.rows[i]
			if cap(arena)-len(arena) < widest {
				arena = make([]byte, 0, widest*(hi-i))
			}
			start := len(arena)
			var null bool
			var err error
			if arena, null, err = exprKey(arena, en, rightKeys); err != nil {
				return struct{}{}, err
			}
			if null {
				arena = arena[:start]
				partIDs[i] = -1
				continue
			}
			keys[i] = arena[start:len(arena):len(arena)]
			widest = max(widest, len(keys[i]))
			if parts > 1 {
				partIDs[i] = int32(joinPartition(keys[i], parts))
			}
		}
		return struct{}{}, nil
	}
	var err error
	if parts <= 1 {
		_, err = keyRows(c, 0, n)
	} else {
		_, err = morselCollect(c, n, keyRows)
	}
	if err != nil {
		return nil, err
	}
	built := make([]joinPart, parts)
	if err := parallelFor(parts, func(p int) error {
		built[p] = newJoinPart(right.rows, keys, partIDs, int32(p), n/parts+1)
		return nil
	}); err != nil {
		return nil, err
	}
	return &joinBuild{layout: &relation{cols: right.cols}, parts: built}, nil
}

// exprKey appends to dst the composite equality key of keys evaluated in en:
// the concatenation of their value.AppendKey keys. null reports a NULL
// component — SQL equality never matches it, so callers skip the row.
func exprKey(dst []byte, en *env, keys []ast.Expr) (key []byte, null bool, err error) {
	for _, k := range keys {
		v, err := eval(en, k)
		if err != nil {
			return dst, false, err
		}
		if v.IsNull() {
			return dst, true, nil
		}
		dst = value.AppendKey(dst, v)
	}
	return dst, false, nil
}
