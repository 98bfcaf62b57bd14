package engine

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/value"
)

// The operators. Every query block executes as a tree of pull-based
// (Volcano-style, vectorized) batch iterators that open (engine.go)
// assembles:
//
//	scan+filter ─▶ probe… ─▶ residual ─▶ project ─▶ sort ─▶ distinct ─▶ limit
//	                                   └▶ group ───┘
//
// The front of the tree — scan through residual, the "chain" — is built per
// morsel, a contiguous range of the source (pipeline.chain), so a
// large source runs as independent chains whose outputs recombine in morsel
// order: row batches through the morsel-order merger (stream_morsel.go),
// group states through AggState.Merge (agg.go). Sort,
// grouped accumulation, DISTINCT and the hashed join builds are the pipeline
// breakers; they do their blocking work on the first pull, so a stream that
// is closed — or LIMIT-0'd — before anyone reads it does nothing. An
// index-probed build is no breaker: it fetches per probe batch.
//
// A batch holds at most the execution's batch size in rows (scans read that
// many, probes and group emission cap their output at it); batches shrink
// through filters and are never re-compacted, so a batch is only guaranteed
// non-empty. A drain's bound is infinite — one batch per morsel; a
// stream's, and an early-exiting LIMIT's, is DefaultBatchSize (Engine).
// Rows are byte-identical at every batch size; rows, scan batches, Float
// sums and statistics are identical at every GOMAXPROCS, because morsel
// boundaries depend on the source's row count alone.

// DefaultBatchSize is the bound of every bounded batch — a stream's pulls
// and frames, an early-exiting LIMIT's scan: large enough to amortize
// per-batch overhead, small enough that a pipeline's working set stays
// cache-resident.
const DefaultBatchSize = 1024

// batchIterator is the pull interface of the tree. next returns the next
// batch of rows, or nil when the stream is exhausted. close releases the
// stream early (LIMIT cut-off, abandoned ResultStream); next after close
// returns nil. Iterators are single-goroutine: a chain is pulled only by
// the worker that built it. The rows of a batch may alias table storage
// and are read-only.
//
// A batch is borrowed: it is its consumer's until the consumer pulls again
// (or closes the stream), and a consumer that keeps rows past that keeps a
// copy. Only a chain whose consumer finishes each batch before pulling
// again — the projection and the grouped accumulation, with the join
// probes in front of them — reads a paged table into a reused
// storage.Scratch (pipeline.chain); every other stream hands out batches
// nothing writes again, so a drain (drain, drainSource) owns what it
// collects.
type batchIterator interface {
	next() ([][]value.Value, error)
	close()
}

// batchEnd is the end of the batch that starts at pos in [pos,hi): size
// rows further, or hi. Written subtraction-first because an unbounded size
// is math.MaxInt.
func batchEnd(pos, hi, size int) int {
	if hi-pos > size {
		return pos + size
	}
	return hi
}

// drain pulls a stream to exhaustion and closes it, which joins any morsel
// workers behind it: nothing a drained tree started outlives the drain.
func drain(it batchIterator) ([][]value.Value, error) {
	defer it.close()
	var out [][]value.Value
	for {
		b, err := it.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		if out == nil {
			// Cap the slice: a scan batch aliases the table's own row
			// slice, so a later append must copy rather than grow into it.
			out = b[:len(b):len(b)]
		} else {
			out = append(out, b...)
		}
	}
}

// rowSource is the row supply of one FROM entry: a base table — all of it
// or, when ids is non-nil, exactly the rows of an index-restricted
// ascending id list — or a derived table's drained child tree. A base
// table's rows carry the cells at schema positions cols, in that order; nil
// means whole rows.
type rowSource struct {
	t    *storage.Table // nil for a derived table
	ids  []int32
	cols []int
	rows [][]value.Value // derived table rows
}

// n returns the number of positions a scan of the source covers.
func (s *rowSource) n() int {
	switch {
	case s.t == nil:
		return len(s.rows)
	case s.ids != nil:
		return len(s.ids)
	}
	return s.t.NumRows()
}

// scanIterator streams source positions [pos,hi) in batches, pulled from
// the storage backend one batch at a time and charged as they are pulled:
// rows per batch, and bytes either as the bytes of the pages the backend
// pinned, cached or not (paged backends), or as the difference of the
// table's row-proportional byte prefix over positions — so the charges
// telescope to exactly t.Bytes·k/n for k of the table's n rows at any batch
// size and morsel (t.Bytes for a full scan), while an early-exited scan
// charges only what it read. A derived table's rows were charged by the
// child tree that produced them.
//
// A base-table scan is the storage.Filter its backend applies (one env, reused
// row to row); a range that keeps no row is charged, not emitted. A scan of
// a paged table that borrowed a scratch (pipeline.chain) reads every batch
// into it, so each batch is valid until the next pull.
type scanIterator struct {
	st      *Stats
	p       *pipeline // the source, and the filter on it
	pos, hi int
	size    int
	closed  bool
	en      env              // the filter's environment; en.row is the row under test
	scratch *storage.Scratch // from scratchPool until close; nil: batches are owned
}

// scratchPool holds the scratches borrowing chains refill (pipeline.chain).
var scratchPool = sync.Pool{New: func() any { return new(storage.Scratch) }}

func (it *scanIterator) next() ([][]value.Value, error) {
	for !it.closed && it.pos < it.hi {
		lo, end := it.pos, batchEnd(it.pos, it.hi, it.size)
		it.pos = end
		src := it.p.src
		if src.t == nil {
			return src.rows[lo:end:end], nil
		}
		t, f := src.t, storage.Filter(nil)
		if it.p.filter != nil {
			f = it
		}
		var b [][]value.Value
		var phys int64
		var err error
		if src.ids != nil {
			b, phys, err = t.FetchCols(src.ids[lo:end], src.cols, f, it.scratch)
		} else {
			b, phys, err = t.ScanCols(lo, end, src.cols, f, it.scratch)
		}
		if err != nil {
			return nil, err
		}
		it.st.BytesScanned += t.ReadCost(lo, end, phys)
		it.st.RowsScanned += int64(end - lo)
		it.st.BatchesStreamed++
		if len(b) > 0 {
			return b, nil
		}
	}
	return nil, nil
}

func (it *scanIterator) close() {
	it.closed = true
	if it.scratch != nil {
		scratchPool.Put(it.scratch)
		it.scratch = nil
	}
}

// Cols and Keep make the iterator its scan's storage.Filter.
func (it *scanIterator) Cols() []int { return it.p.filterCols }

func (it *scanIterator) Keep(row []value.Value) (bool, error) {
	it.en.row = row
	return evalBool(&it.en, it.p.filter)
}

// Page makes the iterator a storage.PageFilter: the page predicate
// setFilter split off, and the residual's Filter (nil when none is left).
func (it *scanIterator) Page() (*storage.Pred, storage.Filter) {
	if it.p.rest == nil {
		return it.p.pred, nil
	}
	return it.p.pred, (*residualFilter)(it)
}

// residualFilter is a scan's Filter over the residual of its page
// predicate, on the same environment as the whole filter's.
type residualFilter scanIterator

func (r *residualFilter) Cols() []int { return r.p.restCols }

func (r *residualFilter) Keep(row []value.Value) (bool, error) {
	r.en.row = row
	return evalBool(&r.en, r.p.rest)
}

// filterIterator applies a predicate row-at-a-time within each batch,
// emitting the surviving subset (input row order preserved). Batches the
// predicate empties entirely are skipped, not emitted.
type filterIterator struct {
	in    batchIterator
	rel   *relation // column layout only; rows stay in the batches
	pred  ast.Expr
	outer *env
	c     *execCtx
}

func (it *filterIterator) next() ([][]value.Value, error) {
	for {
		b, err := it.in.next()
		if err != nil || b == nil {
			return nil, err
		}
		var out [][]value.Value
		en := &env{rel: it.rel, outer: it.outer, ctx: it.c}
		for _, row := range b {
			en.row = row
			ok, err := evalBool(en, it.pred)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, row)
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (it *filterIterator) close() { it.in.close() }

// probeIterator expands each probe-side batch through one join step: hash
// probe against the step's build, or cross join against its whole right
// side. Each probe row extends with its matching build rows in build-side
// row order, and output batches are capped at the batch size: a probe row
// with a large fanout (duplicate build keys, or a cross join's whole right
// side) is emitted across as many batches as it takes, with the expansion
// position carried between next calls. The cap is what keeps a join's wire
// frames and the consumer's working set batch-sized even when the join
// output is far larger than its input. Against an index-probed build, each
// input batch's keys are looked up together when it arrives (resolve), so
// the batch costs one fetch of the build rows it reaches.
type probeIterator struct {
	in    batchIterator
	step  *joinStep
	outer *env
	c     *execCtx
	size  int // output rows per batch at most

	// Expansion state carried across next calls.
	batch   [][]value.Value // input batch being consumed
	bi      int             // next input row in batch
	lrow    []value.Value   // probe row whose matches are mid-emission
	matches [][]value.Value // its remaining build rows start at mi
	mi      int

	// Against an index-probed build, the input batch's postings in row order
	// (ids) and their rows (found): row i's matches are
	// found[ends[i]:ends[i+1]]. On a composite key, keys holds each row's
	// whole key.
	ids   []int32
	ends  []int
	found [][]value.Value
	keys  []string
	key   []byte // one key, reused
}

func (it *probeIterator) next() ([][]value.Value, error) {
	var out [][]value.Value
	for {
		// Drain the in-flight expansion first.
		for it.mi < len(it.matches) {
			if len(out) >= it.size {
				return out, nil
			}
			rrow := it.matches[it.mi]
			it.mi++
			combined := make([]value.Value, 0, len(it.lrow)+len(rrow))
			combined = append(combined, it.lrow...)
			combined = append(combined, rrow...)
			out = append(out, combined)
		}
		if it.bi >= len(it.batch) {
			// Consumed: let the input batch go before pulling the next one —
			// the previous join step's whole output, when batches are
			// unbounded — rather than pin it while downstream works on out.
			it.batch = nil
			b, err := it.in.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return out, nil // nil when nothing is pending
			}
			it.batch, it.bi = b, 0
			if build := it.step.build; build != nil && build.ix != nil {
				if err := it.resolve(build); err != nil {
					return nil, err
				}
			}
			continue
		}
		lrow := it.batch[it.bi]
		it.bi++
		if it.step.build == nil {
			it.lrow, it.matches, it.mi = lrow, it.step.right, 0
			continue
		}
		if it.step.build.ix != nil {
			it.lrow, it.matches, it.mi = lrow, it.found[it.ends[it.bi-1]:it.ends[it.bi]], 0
			continue
		}
		en := &env{rel: it.step.probe, row: lrow, outer: it.outer, ctx: it.c}
		var null bool
		var err error
		if it.key, null, err = exprKey(it.key[:0], en, it.step.leftKeys); err != nil {
			return nil, err
		}
		if null {
			continue
		}
		matches, err := it.step.build.lookup(it.c, it.key)
		if err != nil {
			return nil, err
		}
		it.lrow, it.matches, it.mi = lrow, matches, 0
	}
}

// resolve looks up the keys of the new input batch in an index-probed build
// and fetches their rows with one call. The postings are the build's indexed
// key's; on a composite key, recheck then drops the fetched rows whose other
// keys differ. The previous batch's matches were all emitted, so its buffers
// are reused.
func (it *probeIterator) resolve(b *joinBuild) error {
	keys := it.step.leftKeys
	it.ids = slices.Grow(it.ids[:0], len(it.batch))
	it.ends = append(slices.Grow(it.ends[:0], len(it.batch)+1), 0)
	it.keys = it.keys[:0]
	en := env{rel: it.step.probe, outer: it.outer, ctx: it.c}
	for _, row := range it.batch {
		en.row = row
		var null bool
		var err error
		if it.key, null, err = exprKey(it.key[:0], &en, keys); err != nil {
			return err
		}
		if len(keys) > 1 {
			it.keys = append(it.keys, string(it.key))
			if !null {
				v, err := eval(&en, keys[b.at])
				if err != nil {
					return err
				}
				it.key = value.AppendKey(it.key[:0], v)
			}
		}
		if !null {
			it.ids = append(it.ids, b.ix.ix.PostingsKey(it.key)...)
		}
		it.ends = append(it.ends, len(it.ids))
	}
	var err error
	if it.found, err = b.ix.fetch(it.c.stats, it.ids, it.found[:0]); err != nil || len(keys) == 1 {
		return err
	}
	return it.recheck(b)
}

// recheck keeps, of each probe row's fetched rows, those whose whole key is
// the probe row's — exactly the rows a hashed build files under that key, in
// the same order — compacting found and ends in place.
func (it *probeIterator) recheck(b *joinBuild) error {
	en := env{rel: b.layout, outer: it.outer, ctx: it.c}
	n, lo := 0, 0
	for i, want := range it.keys {
		hi := it.ends[i+1]
		for _, row := range it.found[lo:hi] {
			en.row = row
			var null bool
			var err error
			if it.key, null, err = exprKey(it.key[:0], &en, it.step.rightKeys); err != nil {
				return err
			}
			if !null && string(it.key) == want {
				it.found[n] = row
				n++
			}
		}
		lo, it.ends[i+1] = hi, n
	}
	it.found = it.found[:n]
	return nil
}

func (it *probeIterator) close() { it.in.close() }

// projectIterator evaluates the SELECT list for each row of a batch. When
// the block sorts, every output row carries its ORDER BY key values after
// the projected cells (projectRow) for the sort breaker downstream.
type projectIterator struct {
	in    batchIterator
	q     *ast.Query
	rel   *relation
	outer *env
	c     *execCtx
}

func (it *projectIterator) next() ([][]value.Value, error) {
	b, err := it.in.next()
	if err != nil || b == nil {
		return nil, err
	}
	out := make([][]value.Value, len(b))
	en := &env{rel: it.rel, outer: it.outer, ctx: it.c}
	for i, row := range b {
		en.row = row
		if out[i], err = projectRow(en, it.q); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (it *projectIterator) close() { it.in.close() }

// distinctIterator is DISTINCT: a seen-set over the rows emits only each
// row's first occurrence, batch-at-a-time. Batches the dedup empties
// entirely are skipped, like filterIterator's. It runs over the merged
// stream, where morsel order makes the survivors exactly the sequential
// scan's first occurrences.
type distinctIterator struct {
	in   batchIterator
	seen map[string]bool
	key  []byte // one row's key, reused
}

func (it *distinctIterator) next() ([][]value.Value, error) {
	if it.seen == nil {
		it.seen = make(map[string]bool)
	}
	for {
		b, err := it.in.next()
		if err != nil || b == nil {
			return nil, err
		}
		var out [][]value.Value
		for _, row := range b {
			it.key = it.key[:0]
			for _, v := range row {
				it.key = value.AppendKey(it.key, v)
			}
			if !it.seen[string(it.key)] {
				it.seen[string(it.key)] = true
				out = append(out, row)
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (it *distinctIterator) close() { it.in.close() }

// limitIterator is the LIMIT countdown: it stops pulling — and closes its
// input, cancelling any morsel workers and cutting the scan and its charged
// I/O short — the moment enough rows have been emitted.
type limitIterator struct {
	in        batchIterator
	remaining int
}

func (it *limitIterator) next() ([][]value.Value, error) {
	if it.remaining == 0 {
		it.in.close()
		return nil, nil
	}
	b, err := it.in.next()
	if err != nil || b == nil {
		return nil, err
	}
	if len(b) >= it.remaining {
		b = b[:it.remaining]
		it.remaining = 0
		it.in.close()
	} else {
		it.remaining -= len(b)
	}
	return b, nil
}

func (it *limitIterator) close() { it.in.close() }

// cutFrame takes the first size rows off buf as a batch. A partial cut
// copies the frame out and clears it in buf, so a batch the consumer has
// shipped (and the ciphertext blobs it references) is collectable before
// the stream ends; the final cut hands the remainder over whole.
func cutFrame(buf [][]value.Value, size int) (frame, rest [][]value.Value) {
	if len(buf) <= size {
		return buf, nil
	}
	frame = make([][]value.Value, size)
	copy(frame, buf)
	clear(buf[:size])
	return frame, buf[size:]
}

// frameIterator re-cuts a stream into batches of exactly size rows (the
// last may be short), whatever sizes arrive.
type frameIterator struct {
	in   batchIterator
	size int
	buf  [][]value.Value
	eof  bool
}

func (it *frameIterator) next() ([][]value.Value, error) {
	for !it.eof && len(it.buf) < it.size {
		b, err := it.in.next()
		if err != nil {
			return nil, err
		}
		switch {
		case b == nil:
			it.eof = true
		case len(it.buf) == 0:
			it.buf = b
		default:
			it.buf = append(it.buf, b...)
		}
	}
	if len(it.buf) == 0 {
		return nil, nil
	}
	var out [][]value.Value
	out, it.buf = cutFrame(it.buf, it.size)
	return out, nil
}

func (it *frameIterator) close() {
	it.eof, it.buf = true, nil
	it.in.close()
}

// The sort breaker. Its input rows carry their ORDER BY key values in
// their last len(order) cells; it ranks them by those keys with arrival
// order as the final tiebreaker — a stable sort — and, when only the first
// k rows can ever be emitted (ORDER BY … LIMIT k), keeps just the k best in
// a bounded heap instead of the whole input. A block of several morsels
// runs the bounded form twice: each morsel's chain ends in a pre-pass that
// forwards its k best, still keyed and in rank order, and the final pass
// over the merged stream — where morsel order is arrival order — keeps the
// global k. The final pass strips the key cells and emits in batches.

// seqRow is one sort candidate: a keyed row and its arrival sequence.
type seqRow struct {
	row []value.Value
	seq int
}

type sortIterator struct {
	in    batchIterator
	order []ast.OrderItem
	k     int  // >= 0: keep only the k first-ranked rows; < 0: all
	final bool // strip keys, emit size-row batches (else: one keyed batch)
	size  int

	rows   []seqRow // bounded: max-heap, root = worst kept row
	seen   int
	sorted bool
	out    [][]value.Value
}

// less is the sort's total order: ORDER BY keys first (Desc flips),
// arrival sequence as tiebreaker.
func (s *sortIterator) less(a, b *seqRow) bool {
	nk := len(s.order)
	ka, kb := a.row[len(a.row)-nk:], b.row[len(b.row)-nk:]
	for i, o := range s.order {
		cmp := value.Compare(ka[i], kb[i])
		if cmp == 0 {
			continue
		}
		if o.Desc {
			return cmp > 0
		}
		return cmp < 0
	}
	return a.seq < b.seq
}

// admit offers one row. A full heap replaces its root only when the
// candidate ranks strictly before it.
func (s *sortIterator) admit(row []value.Value) {
	cand := seqRow{row: row, seq: s.seen}
	s.seen++
	switch {
	case s.k < 0:
		s.rows = append(s.rows, cand)
	case len(s.rows) < s.k:
		s.rows = append(s.rows, cand)
		s.siftUp(len(s.rows) - 1)
	case s.k > 0 && s.less(&cand, &s.rows[0]):
		s.rows[0] = cand
		s.siftDown(0)
	}
}

func (s *sortIterator) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(&s.rows[p], &s.rows[i]) {
			return
		}
		s.rows[p], s.rows[i] = s.rows[i], s.rows[p]
		i = p
	}
}

func (s *sortIterator) siftDown(i int) {
	n := len(s.rows)
	for {
		worst := i
		for _, ch := range [2]int{2*i + 1, 2*i + 2} {
			if ch < n && s.less(&s.rows[worst], &s.rows[ch]) {
				worst = ch
			}
		}
		if worst == i {
			return
		}
		s.rows[i], s.rows[worst] = s.rows[worst], s.rows[i]
		i = worst
	}
}

func (s *sortIterator) next() ([][]value.Value, error) {
	if !s.sorted {
		s.sorted = true
		for {
			b, err := s.in.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			for _, row := range b {
				s.admit(row)
			}
		}
		sort.Slice(s.rows, func(i, j int) bool { return s.less(&s.rows[i], &s.rows[j]) })
		strip := 0
		if s.final {
			strip = len(s.order)
		}
		s.out = make([][]value.Value, len(s.rows))
		for i, r := range s.rows {
			s.out[i] = r.row[:len(r.row)-strip]
		}
		s.rows = nil
	}
	if len(s.out) == 0 {
		return nil, nil
	}
	var b [][]value.Value
	b, s.out = cutFrame(s.out, s.size)
	return b, nil
}

func (s *sortIterator) close() {
	s.sorted, s.rows, s.out = true, nil, nil
	s.in.close()
}
