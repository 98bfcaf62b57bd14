// Package engine is a from-scratch analytical SQL executor. It plays the
// role Postgres plays in the paper: an unmodified DBMS that scans, joins,
// groups, and sorts — extended with user-defined functions (UDFs) so the
// untrusted server can operate on ciphertexts (PAILLIER_SUM, GROUP_CONCAT).
//
// A query block runs exactly one way. open (this file) turns it into a
// tree of pull-based batch iterators (stream.go),
//
//	source+filter → probe… → residual → project | group → sort → distinct → limit
//
// and every consumer is a drain of such a tree: Execute collects it into a
// Result, ExecuteStream (stream_api.go) hands it out batch by batch,
// subqueries (subquery.go: planned when their block opens, an uncorrelated
// or equality-correlated EXISTS/IN/scalar one drained once and probed like a
// join), derived tables and hashed join build sides drain a child tree (an
// index-probed build side fetches only the rows its probes reach). Large
// sources cut into morsels: GOMAXPROCS workers each run their own
// chain over the next morsel and the outputs recombine in morsel order
// (parallel.go, stream_morsel.go), so rows, Float sums and Stats depend on
// the data alone, and rows are byte-identical at every batch size. The
// engine reports byte-accurate scan statistics that the
// MONOMI cost model converts to simulated I/O time.
package engine

import (
	"fmt"
	"math"
	"slices"
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
	// BytesScanned is the table bytes scans read: the bytes of every page a
	// paged backend pinned, cached or not, or the rows' proportional share
	// of Table.Bytes in memory. An index-probed join build (tableProbe)
	// charges the same way for the rows it fetched, plus its one drain's
	// page bytes on disk.
	BytesScanned int64
	ExtraBytes   int64 // bytes read outside tables (Paillier pack files)
	// RowsScanned is the rows scans produced. An index-probed join build
	// charges each build row once, the first time a probe reaches it,
	// whether fetched or read from its drained copy, so the count does not
	// depend on the backend or on when the build drained.
	RowsScanned     int64
	RowsOut         int64 // rows in the final result
	UDFNanos        int64 // wall time spent inside crypto UDFs
	SubqueryRuns    int64 // number of subquery executions (incl. decorrelated)
	BatchesStreamed int64 // batches pulled from table scans
	// IndexLookups is the secondary-index probes made: one per point or
	// range conjunct, one per IN element, and one per index-probed join
	// build, however many probe batches it serves.
	IndexLookups       int64
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
// A source larger than one morsel runs as one scan → filter → probe →
// project (or grouped-accumulation) chain per morsel on GOMAXPROCS workers,
// and per-morsel rows or aggregation states (AggState.Merge) recombine in
// morsel order (parallel.go).
//
// The rows one pull moves through the tree follow from how the result is
// consumed, not from a knob: Execute drains one unbounded batch per morsel,
// an ExecuteStream execution moves DefaultBatchSize rows per pull, and a
// block whose LIMIT can stop its scan reads at most DefaultBatchSize rows
// per pull on either path. Rows are byte-identical at every batch size;
// only memory, time to the first batch and early-exit granularity change.
// The knobs must not be changed while queries are in flight; concurrent
// Execute calls on one engine are otherwise safe (execution state is
// per-call, and catalogs are read-only during execution).
type Engine struct {
	Cat *storage.Catalog
	// Deprecated: UseIndexes is ignored. The engine uses the indexes a table
	// declares (storage.Table.DeclareIndex), so a deployment decides index
	// use by declaring them or not (access.go). The field stays only because
	// the benchmark's layer harness (bench/layers.go), whose files are
	// frozen, sets it.
	UseIndexes bool
	scalars    map[string]ScalarUDF
	aggs       map[string]AggUDFFactory
	// batchSize, when positive, replaces the batch rule above on every
	// path, and the morsel with it (morselRows); tests set it to sweep
	// small batches and morsels over small fixtures.
	batchSize int

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

// AggState accumulates one group's values for an aggregate: an aggregate
// UDF's state, or a builtin's (BuiltinAgg) — grouping runs both through
// this one interface.
//
// Add folds one input row's argument values. The engine evaluates them into
// one buffer it reuses for the next row, so Add must not retain args (a
// value copied out of it may be kept).
//
// Merge folds a partial state — produced by the same factory over a
// disjoint, earlier-or-later morsel of the same group — into the
// receiver. Grouped aggregation over several morsels accumulates one state
// per (morsel, group) and merges them in morsel order, so an implementation that
// is order-sensitive (e.g. concatenation) sees its inputs in the original
// row order. After a state has been merged from, it is discarded; Merge
// may therefore steal its buffers.
//
// Result finalizes the group. An uncorrelated block fans its groups'
// finalization across GOMAXPROCS workers, so Result may be invoked
// concurrently with other states' Result calls (never concurrently on one
// state). Every state of a block, whichever morsel created it, is given
// the block's one *Stats sink, so the morsels' Adds and the Results share
// it: an implementation that writes to it must make those writes atomic.
type AggState interface {
	Add(args []value.Value) error
	Merge(other AggState) error
	Result() (value.Value, error)
}

// AggUDFFactory creates a fresh per-group state for an aggregate UDF,
// charging its work to st.
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
	c := e.newCtx(q, params, math.MaxInt)
	if err := c.resolve(q); err != nil {
		return nil, err
	}
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
	subq   map[*ast.Query]*subqPlan // written only from open (planSubquery); morsels read it
	batch  int                      // rows per batch; math.MaxInt when draining
	stmt   *stmtCols                // the statement's column set, shared with morsel contexts
	// aliased maps each block whose HAVING or ORDER BY names a SELECT-list
	// alias to its copy with the aliased expressions substituted
	// (ast.WithAliases); nil when no block does. Morsel contexts share it
	// read-only.
	aliased map[*ast.Query]*ast.Query
	// keyBuf is the subquery probes' key buffer (outerKey), and rowBuf the
	// buffer an index-probed build's lookup returns its rows in; a context
	// runs on one goroutine, so its probes share them.
	keyBuf []byte
	rowBuf [][]value.Value
}

// names is the catalog the statement's names resolve against.
func (c *execCtx) names() ast.Catalog { return c.eng.Cat }

// resolve binds every name of statement q once, before the first row, so a
// name error never depends on the data (ast.Bind), and records the blocks
// whose HAVING or ORDER BY read a SELECT alias (block). Evaluation then only
// searches row layouts.
func (c *execCtx) resolve(q *ast.Query) error {
	return ast.Bind(q, nil, c.names(), func(cr *ast.ColumnRef, b ast.Binding) error {
		switch {
		case b.Block == nil:
			return fmt.Errorf("engine: %w %s", ast.ErrUnknownColumn, cr.SQL())
		case b.Alias != nil && c.aliased[b.Block] == nil:
			bound, err := ast.WithAliases(b.Block)
			if c.aliased == nil {
				c.aliased = make(map[*ast.Query]*ast.Query)
			}
			c.aliased[b.Block] = bound
			return err
		}
		return nil
	})
}

// block returns q as resolve bound it: with its SELECT aliases substituted
// in HAVING and ORDER BY when it names one.
func (c *execCtx) block(q *ast.Query) *ast.Query {
	if b := c.aliased[q]; b != nil {
		return b
	}
	return q
}

// newCtx creates the context of one top-level execution of q that moves
// batch rows per pull, unless the engine's test override says otherwise.
func (e *Engine) newCtx(q *ast.Query, params map[string]value.Value, batch int) *execCtx {
	if e.batchSize > 0 {
		batch = e.batchSize
	}
	return &execCtx{
		eng: e, params: params, stats: &Stats{}, batch: batch,
		stmt: &stmtCols{root: q},
	}
}

// stmtCols is the set of column names a statement references anywhere —
// every clause of every block, subqueries and derived tables included. A
// paged base table is scanned with just the columns in it (fromSource):
// pruning by bare name across the whole statement keeps in every layout
// each column a reference could bind to, qualified or not, so the per-row
// layout search finds what resolve bound against the full schema.
// The set is collected on first use, so a statement over in-memory tables
// never computes it.
type stmtCols struct {
	root  *ast.Query
	once  sync.Once
	all   bool // some clause names `*`, other than an EXISTS projection
	names map[string]bool
}

// positions returns the ascending schema positions of t's columns that the
// statement references: nil when it names `*` outside an EXISTS projection
// (every column), and an empty list when it names none of t's (COUNT(*)).
func (s *stmtCols) positions(t *storage.Table) []int {
	s.once.Do(func() {
		s.names = make(map[string]bool)
		unread := make(map[ast.Expr]bool) // EXISTS projections, seen before their block
		ast.WalkStatement(s.root, func(e ast.Expr) {
			switch x := e.(type) {
			case *ast.ExistsExpr:
				for _, p := range x.Sub.Projections {
					unread[p.Expr] = true
				}
			case *ast.ColumnRef:
				s.all = s.all || x.Column == "*" && !unread[x]
				s.names[x.Column] = true
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
// the tree in batches. Drained ones — a subquery's result, a drained join
// build side — carry their rows.
type relation struct {
	cols []colInfo
	rows [][]value.Value
	// star lists the positions of cols in FROM order when a join put them
	// in another (fromOrder): SELECT * emits the FROM order. nil: cols is
	// in FROM order.
	star []int
}

// indexOf finds a (possibly qualified) column in the layout: the per-row
// search eval does once resolve has bound the statement's names. It returns
// -1 if the column is absent, and an error only on ambiguity.
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
			return -1, fmt.Errorf("engine: %w %s", ast.ErrAmbiguousColumn, col)
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
//     dedups after it);
//   - DISTINCT adds the seen-set over the merged stream, LIMIT the
//     countdown.
//
// A block of several morsels runs one chain per morsel; under ORDER BY …
// LIMIT each chain ends in a bounded-sort pre-pass so only candidates cross
// the merger. A LIMIT that can stop the scan early (no sort, no grouping in
// front of it) keeps the block on one chain that reads at most
// DefaultBatchSize rows per pull: only the global row prefix matters, so
// one early-exiting chain is the least work, and the charged scan does not
// depend on whether the result is drained or streamed.
//
// The subqueries the block's clauses name are planned here, before anything
// else (planBlock): their plans are complete and immutable by the time the
// first chain exists, so a block with subqueries cuts into morsels like any other. A
// block opened under an outer row is being re-opened beneath a naive
// subquery, whose planning already covered it (planBeneath) — it may be
// running on a morsel worker and writes no plan.
func (c *execCtx) open(q *ast.Query, outer *env) (batchIterator, error) {
	q = c.block(q)
	if outer == nil {
		if err := c.planBlock(q); err != nil {
			return nil, err
		}
	}
	p, err := c.prepare(q, outer, true)
	if err != nil {
		return nil, err
	}
	sorts, grouped := len(q.OrderBy) > 0, c.isGrouped(q)
	keep := -1 // rows the sort must keep; DISTINCT dedups after it, so no bound
	if !q.Distinct {
		keep = q.Limit
	}
	morsels := c.morsels(p)
	if q.Limit >= 0 && !sorts && !grouped {
		morsels, p.batch = 1, min(p.batch, DefaultBatchSize)
	}

	var it batchIterator
	if grouped {
		it = &groupEmitter{c: c, q: q, p: p, morsels: morsels}
	} else {
		it = c.stream(p, morsels, func(sc *execCtx, lo, hi int) batchIterator {
			in, _ := p.chain(sc, lo, hi, true)
			var it batchIterator = &projectIterator{in: in, q: q, rel: p.joined, outer: outer, c: sc}
			// A morsel's pre-pass: only candidates cross the merger.
			if morsels > 1 && sorts && keep >= 0 {
				it = &sortIterator{in: it, order: q.OrderBy, k: keep, size: math.MaxInt}
			}
			return it
		})
	}
	if sorts {
		it = &sortIterator{in: it, order: q.OrderBy, k: keep, final: true, size: c.batch}
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
// row source (the FROM entry the join order starts from, planJoin), its own
// filter, the join steps with their build sides drained and hashed, and the
// post-join predicates. It is read-only once prepared — as are the plans of
// the subqueries its predicates name — so any number of workers can assemble
// independent chains over disjoint ranges of the source.
type pipeline struct {
	src        *rowSource
	layout     *relation // src's columns
	filter     ast.Expr  // predicates on src alone (setFilter)
	filterCols []int     // the layout positions filter reads, on a paged table
	// On a paged table, the part of filter sealed pages evaluate in place
	// (pagePred), and the residual Keep evaluates on its survivors, reading
	// the layout positions restCols.
	pred     *storage.Pred
	rest     ast.Expr
	restCols []int
	steps    []joinStep
	residual ast.Expr  // post-join predicates
	joined   *relation // columns after the last step
	outer    *env
	batch    int // rows a chain's scan reads and its probes emit per pull
}

// prepare resolves q's FROM entries and classifies its WHERE (planJoin)
// into the pipeline open builds chains from: predicates on the source
// alone, join steps, and the residual — where every conjunct of a join that
// names a subquery lands. Derived tables are drained here, and so is every
// join build side that buildSide cannot serve through an index — their scan
// charges precede the first batch, exactly as a hash join cannot probe
// before its builds finish. An index-probed build side reads nothing here:
// its probes fetch the rows they need as they run.
// access allows a single-table block to restrict its scan through an
// index.
func (c *execCtx) prepare(q *ast.Query, outer *env, access bool) (*pipeline, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("engine: query with empty FROM")
	}
	if len(q.From) == 1 {
		// Nothing to classify: the whole WHERE filters the one table.
		src, layout, err := c.fromSource(&q.From[0], outer)
		if err != nil {
			return nil, err
		}
		p := &pipeline{src: src, layout: layout, joined: layout, outer: outer, batch: c.batch}
		p.setFilter(q.Where, c.params)
		if access && outer == nil && src.t != nil && src.t.HasIndexes() {
			if err := c.accessPath(q, p); err != nil {
				return nil, err
			}
		}
		return p, nil
	}

	srcs := make([]*rowSource, len(q.From))
	rels := make([]*relation, len(q.From))
	for i := range q.From {
		var err error
		if srcs[i], rels[i], err = c.fromSource(&q.From[i], outer); err != nil {
			return nil, err
		}
	}
	plan, err := planJoin(q, c.names(), srcs)
	if err != nil {
		return nil, err
	}
	p := &pipeline{src: srcs[plan.start], layout: rels[plan.start], outer: outer, batch: c.batch}
	p.setFilter(ast.AndAll(plan.perTable[plan.start]), c.params)
	p.residual = ast.AndAll(plan.residual)
	p.steps = plan.steps
	cols := p.layout.cols
	for i := range p.steps {
		st := &p.steps[i]
		// The build side is its own scan → filter chain.
		bp := &pipeline{src: srcs[st.next], layout: rels[st.next], joined: rels[st.next], outer: outer, batch: c.batch}
		bp.setFilter(ast.AndAll(plan.perTable[st.next]), c.params)
		st.probe = &relation{cols: cols}
		if len(st.leftKeys) == 0 {
			right, err := c.drainSource(bp)
			if err != nil {
				return nil, err
			}
			st.right = right.rows
		} else if st.build, err = c.buildSide(bp, st.rightKeys, outer, true); err != nil {
			return nil, err
		}
		cols = append(cols[:len(cols):len(cols)], bp.joined.cols...)
	}
	p.joined = &relation{cols: cols, star: fromOrder(plan, rels)}
	return p, nil
}

// fromOrder lists the positions of a joined row's cells in FROM order —
// what SELECT * emits — or nil when the join order is the FROM order.
func fromOrder(plan *joinPlan, rels []*relation) []int {
	order := []int{plan.start}
	for _, st := range plan.steps {
		order = append(order, st.next)
	}
	if slices.IsSorted(order) {
		return nil
	}
	at := make([]int, len(rels)) // each entry's first position in the joined row
	pos := 0
	for _, i := range order {
		at[i] = pos
		pos += len(rels[i].cols)
	}
	star := make([]int, 0, pos)
	for i, r := range rels {
		for k := range r.cols {
			star = append(star, at[i]+k)
		}
	}
	return star
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

// setFilter makes f the filter on p's source. On a paged table it also
// splits off the page predicate (pagePred), with params bound, and finds
// once the cells a scan decodes for the whole filter and for the residual:
// the layout columns whose names each mentions, or all of them when it
// holds a subquery, whose correlated names it does not show.
func (p *pipeline) setFilter(f ast.Expr, params map[string]value.Value) {
	p.filter = f
	if f == nil || p.src.t == nil || !p.src.t.Paged() {
		return
	}
	p.filterCols = p.layout.reads(f)
	if p.pred, p.rest = pagePred(f, p.layout, params); p.pred != nil && p.rest != nil {
		p.restCols = p.layout.reads(p.rest)
	}
}

// reads lists the positions of r's columns that f names, or all of them
// when f holds a subquery.
func (r *relation) reads(f ast.Expr) []int {
	var cols []int
	sub, refs := ast.HasSubquery(f), ast.Columns(f)
	for i, col := range r.cols {
		if sub || slices.ContainsFunc(refs, func(r *ast.ColumnRef) bool { return r.Column == col.name }) {
			cols = append(cols, i)
		}
	}
	return cols
}

// chain assembles the front of the tree over source positions [lo,hi),
// evaluating on sc (so a morsel context accumulates its own stats):
//
//	scan+filter ─batch─▶ probe₁ ─▶ … ─▶ probeₙ ─▶ residual
//
// The join output — often the largest intermediate of a query — never
// exists as a whole, and the first joined batch is available after one
// probe batch instead of after the full probe scan.
//
// A consumer that finishes each batch before pulling again passes borrow:
// a scan of a paged table then reads into a scratch from scratchPool,
// returned when the chain closes, and borrowed reports that the chain's
// batches are those scratch rows — a probe step copies what it emits, so
// only a chain without one hands them on. A drain passes false and owns
// its rows.
func (p *pipeline) chain(sc *execCtx, lo, hi int, borrow bool) (it batchIterator, borrowed bool) {
	scan := &scanIterator{st: sc.stats, p: p, pos: lo, hi: hi, size: p.batch,
		en: env{rel: p.layout, outer: p.outer, ctx: sc}}
	if borrow && p.src.t != nil && p.src.t.Paged() {
		scan.scratch = scratchPool.Get().(*storage.Scratch)
	}
	it = scan
	if p.filter != nil && p.src.t == nil {
		it = &filterIterator{in: it, rel: p.layout, pred: p.filter, outer: p.outer, c: sc}
	}
	for i := range p.steps {
		it = &probeIterator{in: it, step: &p.steps[i], outer: p.outer, c: sc, size: p.batch}
	}
	if p.residual != nil {
		it = &filterIterator{in: it, rel: p.joined, pred: p.residual, outer: p.outer, c: sc}
	}
	return it, scan.scratch != nil && len(p.steps) == 0
}

// ownedChain is chain for a consumer that keeps the rows: a drain.
func (p *pipeline) ownedChain(sc *execCtx, lo, hi int) batchIterator {
	it, _ := p.chain(sc, lo, hi, false)
	return it
}

// morsels decides how many chains p's source cuts into. A correlated
// block stays on one chain: it re-opens per outer row, where morsels would
// multiply goroutines, and its evaluation reaches into the enclosing row's
// environment, whose context belongs to the worker evaluating that row.
func (c *execCtx) morsels(p *pipeline) int {
	if p.outer != nil {
		return 1
	}
	return c.morselCount(p.src.n())
}

// stream runs mk over the whole of p's source: as one chain on c, or as
// one chain per morsel behind the morsel-order merger.
func (c *execCtx) stream(p *pipeline, morsels int, mk func(sc *execCtx, lo, hi int) batchIterator) batchIterator {
	n := p.src.n()
	if morsels <= 1 {
		return mk(c, 0, n)
	}
	return newMorselStream(c, mk, n)
}

// drainSource materializes p's FROM/WHERE rows, unprojected — what a cross
// join's right side, or a build side buildSide cannot serve through an
// index, holds.
func (c *execCtx) drainSource(p *pipeline) (*relation, error) {
	rows, err := drain(c.stream(p, c.morsels(p), p.ownedChain))
	if err != nil {
		return nil, err
	}
	return &relation{cols: p.joined.cols, rows: rows}, nil
}

// buildSide prepares the build of a hash step (step), or of a decorrelated
// EXISTS, over p's FROM/WHERE rows keyed by keys: index-probed when
// probedBuild allows it, otherwise drained and hashed.
func (c *execCtx) buildSide(p *pipeline, keys []ast.Expr, outer *env, step bool) (*joinBuild, error) {
	if b, err := c.probedBuild(p, keys, step); b != nil || err != nil {
		return b, err
	}
	right, err := c.drainSource(p)
	if err != nil {
		return nil, err
	}
	return c.buildJoinMap(right, keys, outer)
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

// projectionCols names a block's output columns (ast.OutputName).
func projectionCols(q *ast.Query) []colInfo {
	cols := make([]colInfo, len(q.Projections))
	for i, p := range q.Projections {
		cols[i] = colInfo{name: ast.OutputName(p)}
	}
	return cols
}

// projectRow evaluates the SELECT list for one input row or group,
// followed — for a block that sorts — by its ORDER BY key values in the
// same slice, where the sort breaker finds and finally strips them.
func projectRow(en *env, q *ast.Query) ([]value.Value, error) {
	vals := make([]value.Value, len(q.Projections), len(q.Projections)+len(q.OrderBy))
	for i, p := range q.Projections {
		// SELECT * expands all input columns; only valid un-aggregated.
		if cr, ok := p.Expr.(*ast.ColumnRef); ok && cr.Column == "*" {
			vals = append(make([]value.Value, 0, len(en.row)+len(q.OrderBy)), en.row...)
			if en.rel != nil {
				for i, k := range en.rel.star {
					vals[i] = en.row[k]
				}
			}
			break
		}
		v, err := eval(en, p.Expr)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	for _, o := range q.OrderBy {
		v, err := eval(en, o.Expr)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}
