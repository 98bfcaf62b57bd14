// Package engine is a from-scratch analytical SQL executor. It plays the
// role Postgres plays in the paper: an unmodified DBMS that scans, joins,
// groups, and sorts — extended with user-defined functions (UDFs) so the
// untrusted server can operate on ciphertexts (PAILLIER_SUM, GROUP_CONCAT).
//
// A query block runs exactly one way. open (this file) turns it into a
// tree of pull-based batch iterators (stream.go),
//
//	source → filter → probe… → residual → project | group → sort → distinct → limit
//
// and every consumer is a drain of such a tree: Execute collects it into a
// Result, ExecuteStream (stream_api.go) hands it out batch by batch,
// subqueries (subquery.go: planned when their block opens, an uncorrelated
// or equality-correlated EXISTS/IN/scalar one drained once and probed like a
// join), derived tables and hash-join build sides drain a child tree. Large
// sources shard: Engine.Parallelism workers each run their own chain over a
// contiguous row range and the outputs recombine in shard order (parallel.go,
// stream_shard.go), so rows are byte-identical at every parallelism level
// and batch size. The engine reports byte-accurate scan statistics that the
// MONOMI cost model converts to simulated I/O time.
package engine

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/value"
)

// Stats accumulates execution statistics for one query. Scans charge batch
// by batch as they are pulled, so an early-exited query charges only what
// it read and a row is RowsScanned exactly once.
type Stats struct {
	BytesScanned       int64 // heap-table bytes read by sequential scans
	ExtraBytes         int64 // bytes read outside tables (Paillier pack files)
	RowsScanned        int64 // rows produced by scans
	RowsOut            int64 // rows in the final result
	UDFNanos           int64 // wall time spent inside crypto UDFs
	SubqueryRuns       int64 // number of subquery executions (incl. decorrelated)
	BatchesStreamed    int64 // batches pulled from table scans
	IndexLookups       int64 // secondary-index probes (point, range, IN element, build)
	RowsSkippedByIndex int64 // rows an index scan avoided reading vs the full scan
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.BytesScanned += o.BytesScanned
	s.ExtraBytes += o.ExtraBytes
	s.RowsScanned += o.RowsScanned
	s.RowsOut += o.RowsOut
	s.UDFNanos += o.UDFNanos
	s.SubqueryRuns += o.SubqueryRuns
	s.BatchesStreamed += o.BatchesStreamed
	s.IndexLookups += o.IndexLookups
	s.RowsSkippedByIndex += o.RowsSkippedByIndex
}

// Sub subtracts other from s — the delta between two cumulative snapshots
// of the same accumulator (how multi-producer streams fold each worker's
// progress exactly once).
func (s *Stats) Sub(o Stats) {
	s.BytesScanned -= o.BytesScanned
	s.ExtraBytes -= o.ExtraBytes
	s.RowsScanned -= o.RowsScanned
	s.RowsOut -= o.RowsOut
	s.UDFNanos -= o.UDFNanos
	s.SubqueryRuns -= o.SubqueryRuns
	s.BatchesStreamed -= o.BatchesStreamed
	s.IndexLookups -= o.IndexLookups
	s.RowsSkippedByIndex -= o.RowsSkippedByIndex
}

// Result is a fully materialized query result.
type Result struct {
	Cols  []string
	Rows  [][]value.Value
	Stats Stats
}

// Bytes returns the total encoded size of the result rows, used to model
// network transfer of intermediate results to the client.
func (r *Result) Bytes() int64 {
	var n int64
	for _, row := range r.Rows {
		for _, v := range row {
			n += int64(v.Size())
		}
		n += 4 // per-row framing
	}
	return n
}

// Engine executes queries against a catalog.
//
// Parallelism sets the worker count for sharded execution: a large source
// is split into contiguous row ranges, each worker runs its own scan →
// filter → probe → project (or grouped-accumulation) chain over one range,
// and per-shard rows or aggregation states (AggState.Merge) recombine in
// shard order. Values < 1 mean GOMAXPROCS; 1 runs everything on the
// calling goroutine.
//
// BatchSize bounds the rows one pull moves through the tree: scans read
// that many rows at a time, join probes and grouped emission cap their
// output batches at it, and a LIMIT stops pulling — and charging — at the
// next batch boundary. 0, the default, means unbounded: one batch per
// shard. Rows are byte-identical at every value; only memory, time to the
// first batch and early-exit granularity change. Both knobs must not be
// changed while queries are in flight; concurrent Execute calls on one
// engine are otherwise safe (execution state is per-call, and catalogs are
// read-only during execution).
type Engine struct {
	Cat         *storage.Catalog
	Parallelism int
	BatchSize   int
	// UseIndexes enables cost-based access-path selection (see access.go):
	// single-table scans may restrict through a secondary index and join
	// builds may serve probes from a hash index. Off by default — results
	// are byte-identical either way, but scan statistics (and therefore
	// simulated I/O time) shrink when an index path is taken. Like the
	// other knobs, it must not change while queries are in flight.
	UseIndexes bool
	scalars    map[string]ScalarUDF
	aggs       map[string]AggUDFFactory

	// Cumulative index counters across every query this engine executed.
	// The monomi layer surfaces these: per-query engine Stats never cross
	// the remote wire, but the untrusted server's engine is long-lived.
	cumIndexLookups atomic.Int64
	cumRowsSkipped  atomic.Int64
}

// IndexStats returns the engine-lifetime index counters: total index
// probes and total rows that index scans avoided reading.
func (e *Engine) IndexStats() (lookups, rowsSkipped int64) {
	return e.cumIndexLookups.Load(), e.cumRowsSkipped.Load()
}

// New creates an engine over the catalog.
func New(cat *storage.Catalog) *Engine {
	return &Engine{
		Cat:     cat,
		scalars: make(map[string]ScalarUDF),
		aggs:    make(map[string]AggUDFFactory),
	}
}

// ScalarUDF is a custom scalar function callable from SQL.
type ScalarUDF func(st *Stats, args []value.Value) (value.Value, error)

// AggState accumulates one group's values for an aggregate UDF.
//
// Merge folds a partial state — produced by the same factory over a
// disjoint, earlier-or-later row shard of the same group — into the
// receiver. Sharded grouped aggregation accumulates one state per
// (shard, group) and merges them in shard order, so an implementation that
// is order-sensitive (e.g. concatenation) sees its inputs in the original
// row order. After a state has been merged from, it is discarded; Merge
// may therefore steal its buffers.
//
// Result finalizes the group. When UDF aggregates are present and the
// engine runs parallel, finalization fans groups across workers, so Result
// may be invoked concurrently with other states' Result calls (never
// concurrently on one state). An implementation that writes to shared
// state — typically the *Stats sink its factory captured — must make those
// writes atomic.
type AggState interface {
	Add(args []value.Value) error
	Merge(other AggState) error
	Result() (value.Value, error)
}

// AggUDFFactory creates a fresh per-group state for an aggregate UDF.
type AggUDFFactory func(st *Stats) AggState

// RegisterScalar installs a scalar UDF under the given (lowercase) name.
func (e *Engine) RegisterScalar(name string, fn ScalarUDF) { e.scalars[strings.ToLower(name)] = fn }

// RegisterAgg installs an aggregate UDF under the given (lowercase) name.
func (e *Engine) RegisterAgg(name string, f AggUDFFactory) { e.aggs[strings.ToLower(name)] = f }

// IsAggUDF reports whether name is a registered aggregate UDF.
func (e *Engine) IsAggUDF(name string) bool {
	_, ok := e.aggs[strings.ToLower(name)]
	return ok
}

// Execute runs q with the given parameter bindings: it drains the tree
// ExecuteStream returns into one Result.
func (e *Engine) Execute(q *ast.Query, params map[string]value.Value) (*Result, error) {
	c := e.newCtx(q, params)
	rel, err := c.execQuery(q, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Cols: colNames(rel.cols), Rows: rel.rows, Stats: *c.stats}
	res.Stats.RowsOut = int64(len(res.Rows))
	return res, nil
}

// execCtx carries per-execution state.
type execCtx struct {
	eng    *Engine
	params map[string]value.Value
	stats  *Stats
	subq   map[*ast.Query]*subqPlan // written only from open (planSubquery); shards read it
	par    int                      // worker count for sharded chains (1 = sequential)
	batch  int                      // rows per batch; math.MaxInt for BatchSize 0
	useIdx bool                     // cost-based index access paths enabled (access.go)
	stmt   *stmtCols                // the statement's column set, shared with shard contexts
}

// newCtx creates the context of one top-level execution of q.
func (e *Engine) newCtx(q *ast.Query, params map[string]value.Value) *execCtx {
	batch := e.BatchSize
	if batch <= 0 {
		batch = math.MaxInt
	}
	return &execCtx{
		eng: e, params: params, stats: &Stats{},
		par: e.effectiveParallelism(), batch: batch, useIdx: e.UseIndexes,
		stmt: &stmtCols{root: q},
	}
}

// stmtCols is the set of column names a statement references anywhere —
// every clause of every block, subqueries and derived tables included. A
// paged base table is scanned with just the columns in it (fromSource):
// pruning by bare name across the whole statement keeps every table that
// could resolve a reference, qualified or not, able to, so name resolution,
// ambiguity errors and correlation see what full-width layouts showed them.
// The set is collected on first use, so a statement over in-memory tables
// never computes it.
type stmtCols struct {
	root  *ast.Query
	once  sync.Once
	all   bool // some clause names `*`
	names map[string]bool
}

// positions returns the ascending schema positions of t's columns that the
// statement references: nil when it names `*` (every column), and an
// empty, non-nil list when it names none of t's (COUNT(*) needs no cell).
func (s *stmtCols) positions(t *storage.Table) []int {
	s.once.Do(func() {
		s.names = make(map[string]bool)
		ast.WalkStatement(s.root, func(e ast.Expr) {
			if cr, ok := e.(*ast.ColumnRef); ok {
				if cr.Column == "*" {
					s.all = true
				}
				s.names[cr.Column] = true
			}
		})
	})
	if s.all {
		return nil
	}
	pos := []int{}
	for i, col := range t.Schema.Cols {
		if s.names[col.Name] {
			pos = append(pos, i)
		}
	}
	return pos
}

// colInfo names one relation column.
type colInfo struct {
	table string // alias qualifier; empty for computed columns
	name  string
}

// colNames lists the bare column names of a layout.
func colNames(cols []colInfo) []string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.name
	}
	return names
}

// relation is a set of rows with named columns. Most relations are
// layout-only (rows nil): they name the columns of rows that stream through
// the tree in batches. Drained ones — a subquery's result, a join build
// side — carry their rows.
type relation struct {
	cols []colInfo
	rows [][]value.Value
	// base is non-nil only for an unfiltered base-table build side (rows
	// are the table's rows 1:1); the join may then use the table's indexes.
	base *storage.Table
}

// indexOf resolves a (possibly qualified) column name. It returns -1 if the
// column is absent, and an error only on ambiguity.
func (r *relation) indexOf(table, col string) (int, error) {
	found := -1
	for i, c := range r.cols {
		if c.name != col {
			continue
		}
		if table != "" && c.table != table {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("engine: ambiguous column %s", col)
		}
		found = i
	}
	return found, nil
}

// tableLayout builds the column layout of one base table scanned under the
// given alias: the columns at schema positions pos, or all of them when pos
// is nil.
func tableLayout(t *storage.Table, ref string, pos []int) *relation {
	if pos == nil {
		cols := make([]colInfo, len(t.Schema.Cols))
		for i, col := range t.Schema.Cols {
			cols[i] = colInfo{table: ref, name: col.Name}
		}
		return &relation{cols: cols}
	}
	cols := make([]colInfo, len(pos))
	for i, ci := range pos {
		cols[i] = colInfo{table: ref, name: t.Schema.Cols[ci].Name}
	}
	return &relation{cols: cols}
}

// execQuery drains q's tree into a relation — how Execute, subqueries and
// derived tables consume a query block. outer is the enclosing row
// environment for correlated subqueries (nil at top level).
func (c *execCtx) execQuery(q *ast.Query, outer *env) (*relation, error) {
	it, err := c.open(q, outer)
	if err != nil {
		return nil, err
	}
	rows, err := drain(it)
	if err != nil {
		return nil, err
	}
	return &relation{cols: projectionCols(q), rows: rows}, nil
}

// open builds the iterator tree of one query block — the only place an
// operator is chosen. The FROM/WHERE front comes from prepare; what follows
// depends only on the block's clauses:
//
//   - a grouped block accumulates every chain into group states and emits
//     finished groups (groupEmitter), otherwise each chain ends in a
//     projection;
//   - ORDER BY adds the sort breaker (bounded to the LIMIT when nothing
//     dedups after it), unless an ordered index already emits in that order;
//   - DISTINCT adds the seen-set, LIMIT the countdown.
//
// A block that may shard runs one chain per worker, with a per-shard
// DISTINCT or bounded-sort pre-pass so only candidates cross the merger. A
// LIMIT that can stop the scan early (no sort, no grouping in front of it)
// keeps the block on one chain: only the global row prefix matters, so one
// early-exiting chain is the least work and leaves the charged scan
// independent of the Parallelism knob.
//
// The subqueries the block's clauses name are planned here, before anything
// else (planBlock): their plans are complete and immutable by the time the
// first chain exists, so a block with subqueries shards like any other. A
// block opened under an outer row is being re-opened beneath a naive
// subquery, whose planning already covered it (planBeneath) — it may be
// running on a shard worker and writes no plan.
func (c *execCtx) open(q *ast.Query, outer *env) (batchIterator, error) {
	if outer == nil {
		if err := c.planBlock(q); err != nil {
			return nil, err
		}
	}
	p, err := c.prepare(q, outer, true)
	if err != nil {
		return nil, err
	}
	var order []ast.OrderItem
	if !p.ordered {
		order = q.OrderBy
	}
	sorts, grouped := len(order) > 0, c.isGrouped(q)
	keep := -1 // rows the sort must keep; DISTINCT dedups after it, so no bound
	if !q.Distinct {
		keep = q.Limit
	}
	shards := c.shards(p)
	if q.Limit >= 0 && !sorts && !grouped {
		shards = 1
	}
	aliases := aliasMap(q)

	var it batchIterator
	if grouped {
		it = &groupEmitter{c: c, q: q, p: p, shards: shards, order: order, aliases: aliases}
	} else {
		it = c.stream(p, shards, func(sc *execCtx, lo, hi int) batchIterator {
			var it batchIterator = &projectIterator{
				in: p.chain(sc, lo, hi), q: q, order: order,
				rel: p.joined, aliases: aliases, outer: outer, c: sc,
			}
			// A shard's pre-pass: only candidates cross the merger.
			switch {
			case shards > 1 && sorts && keep >= 0:
				it = &sortIterator{in: it, order: order, k: keep, size: math.MaxInt}
			case shards > 1 && !sorts && q.Distinct:
				it = &distinctIterator{in: it}
			}
			return it
		})
	}
	if sorts {
		it = &sortIterator{in: it, order: order, k: keep, final: true, size: c.batch}
	}
	if q.Distinct {
		it = &distinctIterator{in: it}
	}
	if q.Limit >= 0 {
		it = &limitIterator{in: it, remaining: q.Limit}
	}
	return it, nil
}

// pipeline is the prepared FROM/WHERE of one query block: the probe-side
// row source (FROM entry 0 — the greedy join order always grows from it),
// its own filter, the join steps with their build sides drained and
// hashed, and the post-join predicates. It is read-only once prepared — as
// are the plans of the subqueries its predicates name — so any number of
// workers can assemble independent chains over disjoint ranges of the
// source.
type pipeline struct {
	src      *rowSource
	layout   *relation // src's columns
	filter   ast.Expr  // predicates on src alone
	steps    []joinStep
	residual ast.Expr  // post-join predicates
	joined   *relation // columns after the last step
	outer    *env
	// ordered: src already emits in the block's ORDER BY order.
	ordered bool
}

// prepare resolves q's FROM entries and classifies its WHERE (planJoin)
// into the pipeline open builds chains from: predicates on the source
// alone, join steps, and the residual — where every conjunct of a join that
// names a subquery lands. Derived tables and join build sides are drained
// here — their scan charges precede the first batch, exactly as a hash join
// cannot probe before its builds finish.
// access allows a single-table block to restrict or order its scan through
// an index.
func (c *execCtx) prepare(q *ast.Query, outer *env, access bool) (*pipeline, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("engine: query with empty FROM")
	}
	src, layout, err := c.fromSource(&q.From[0], outer)
	if err != nil {
		return nil, err
	}
	p := &pipeline{src: src, layout: layout, joined: layout, outer: outer}
	if len(q.From) == 1 {
		// Nothing to classify: the whole WHERE filters the one table.
		p.filter = q.Where
		if access && c.useIdx && outer == nil && src.t != nil {
			c.accessPath(q, p, q.From[0].RefName())
		}
		return p, nil
	}

	srcs := make([]*rowSource, len(q.From))
	rels := make([]*relation, len(q.From))
	refNames := make([]string, len(q.From))
	srcs[0], rels[0] = src, layout
	for i := range q.From {
		refNames[i] = q.From[i].RefName()
		if i > 0 {
			if srcs[i], rels[i], err = c.fromSource(&q.From[i], outer); err != nil {
				return nil, err
			}
		}
	}
	plan, err := planJoin(q, refNames, rels)
	if err != nil {
		return nil, err
	}
	p.filter, p.residual = ast.AndAll(plan.perTable[0]), ast.AndAll(plan.residual)
	p.steps = plan.steps
	cols := layout.cols
	for i := range p.steps {
		st := &p.steps[i]
		// The build side is its own scan → filter chain, drained.
		bp := &pipeline{
			src: srcs[st.next], layout: rels[st.next], joined: rels[st.next],
			filter: ast.AndAll(plan.perTable[st.next]), outer: outer,
		}
		right, err := c.drainSource(bp)
		if err != nil {
			return nil, err
		}
		st.probe = &relation{cols: cols}
		if len(st.leftKeys) == 0 {
			st.right = right.rows
		} else if st.build, err = c.buildJoinMap(right, st.rightKeys, outer); err != nil {
			return nil, err
		}
		cols = append(cols[:len(cols):len(cols)], right.cols...)
	}
	p.joined = &relation{cols: cols}
	return p, nil
}

// fromSource resolves one FROM entry to its row source and column layout:
// a base table, or a derived table's child tree drained into memory and
// re-qualified under its alias. A paged base table supplies only the
// columns the statement references — its rows are decoded per scan, so
// every column left out is work not done — while an in-memory table's rows
// already exist and are handed out whole: narrowing them would copy.
func (c *execCtx) fromSource(f *ast.TableRef, outer *env) (*rowSource, *relation, error) {
	if f.Sub == nil {
		t, err := c.eng.Cat.Table(f.Name)
		if err != nil {
			return nil, nil, err
		}
		var cols []int
		if t.Paged() {
			cols = c.stmt.positions(t)
		}
		return &rowSource{t: t, cols: cols}, tableLayout(t, f.RefName(), cols), nil
	}
	sub, err := c.execQuery(f.Sub, outer)
	if err != nil {
		return nil, nil, err
	}
	for i := range sub.cols {
		sub.cols[i].table = f.RefName()
	}
	return &rowSource{rows: sub.rows}, &relation{cols: sub.cols}, nil
}

// chain assembles the front of the tree over source positions [lo,hi),
// evaluating on sc (so a shard context accumulates its own stats):
//
//	scan ─batch─▶ filter ─▶ probe₁ ─▶ … ─▶ probeₙ ─▶ residual
//
// The join output — often the largest intermediate of a query — never
// exists as a whole, and the first joined batch is available after one
// probe batch instead of after the full probe scan.
func (p *pipeline) chain(sc *execCtx, lo, hi int) batchIterator {
	var it batchIterator = &scanIterator{st: sc.stats, src: p.src, pos: lo, hi: hi, size: sc.batch}
	if p.filter != nil {
		it = &filterIterator{in: it, rel: p.layout, pred: p.filter, outer: p.outer, c: sc}
	}
	for i := range p.steps {
		it = &probeIterator{in: it, step: &p.steps[i], outer: p.outer, c: sc}
	}
	if p.residual != nil {
		it = &filterIterator{in: it, rel: p.joined, pred: p.residual, outer: p.outer, c: sc}
	}
	return it
}

// shards decides how many chains p's source splits into. A correlated
// block stays on one chain: it re-opens per outer row, where sharding would
// multiply goroutines, and its evaluation reaches into the enclosing row's
// environment, whose context belongs to the worker evaluating that row.
func (c *execCtx) shards(p *pipeline) int {
	if p.outer != nil {
		return 1
	}
	return c.shardCount(p.src.n())
}

// stream runs mk over the whole of p's source: as one chain on c, or as
// one chain per shard behind the shard-order merger.
func (c *execCtx) stream(p *pipeline, shards int, mk func(sc *execCtx, lo, hi int) batchIterator) batchIterator {
	n := p.src.n()
	if shards <= 1 {
		return mk(c, 0, n)
	}
	return newShardedStream(c, mk, shardStreamBounds(n, shards, c.batch))
}

// drainSource materializes p's FROM/WHERE rows, unprojected — what a join
// build side or a decorrelated EXISTS hashes. An unfiltered base table
// drains to its own rows 1:1, which lets the build use the table's indexes.
func (c *execCtx) drainSource(p *pipeline) (*relation, error) {
	rows, err := drain(c.stream(p, c.shards(p), p.chain))
	if err != nil {
		return nil, err
	}
	rel := &relation{cols: p.joined.cols, rows: rows}
	if p.filter == nil && len(p.steps) == 0 {
		rel.base = p.src.t
	}
	return rel, nil
}

// isGrouped reports whether the query needs the aggregation path.
func (c *execCtx) isGrouped(q *ast.Query) bool {
	if len(q.GroupBy) > 0 || q.Having != nil {
		return true
	}
	for _, p := range q.Projections {
		if c.hasAggLike(p.Expr) {
			return true
		}
	}
	return false
}

// hasAggLike reports whether e contains a built-in aggregate or an
// aggregate UDF call.
func (c *execCtx) hasAggLike(e ast.Expr) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) {
		switch n := x.(type) {
		case *ast.AggExpr:
			found = true
		case *ast.FuncCall:
			if c.eng.IsAggUDF(n.Name) {
				found = true
			}
		}
	})
	return found
}

// distinctKey renders one row's dedup key.
func distinctKey(row []value.Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.HashKey())
		b.WriteByte(0)
	}
	return b.String()
}

// projectionCols derives output column names from the SELECT list.
func projectionCols(q *ast.Query) []colInfo {
	cols := make([]colInfo, len(q.Projections))
	for i, p := range q.Projections {
		name := p.Alias
		if name == "" {
			if cr, ok := p.Expr.(*ast.ColumnRef); ok {
				name = cr.Column
			} else {
				name = p.Expr.SQL()
			}
		}
		cols[i] = colInfo{name: name}
	}
	return cols
}

// aliasMap exposes SELECT-list aliases to HAVING/ORDER BY resolution (nil
// when the list has none).
func aliasMap(q *ast.Query) map[string]ast.Expr {
	var m map[string]ast.Expr
	for _, p := range q.Projections {
		if p.Alias != "" {
			if m == nil {
				m = make(map[string]ast.Expr)
			}
			m[p.Alias] = p.Expr
		}
	}
	return m
}

// projectRow evaluates the SELECT list for one input row or group,
// followed — for a block that sorts — by its ORDER BY key values in the
// same slice, where the sort breaker finds and finally strips them.
func projectRow(en *env, q *ast.Query, order []ast.OrderItem) ([]value.Value, error) {
	vals := make([]value.Value, len(q.Projections), len(q.Projections)+len(order))
	for i, p := range q.Projections {
		// SELECT * expands all input columns; only valid un-aggregated.
		if cr, ok := p.Expr.(*ast.ColumnRef); ok && cr.Column == "*" {
			vals = append(make([]value.Value, 0, len(en.row)+len(order)), en.row...)
			break
		}
		v, err := eval(en, p.Expr)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	for _, o := range order {
		v, err := eval(en, o.Expr)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}
