package engine

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/value"
)

// The operators. Every query block executes as a tree of pull-based
// (Volcano-style, vectorized) batch iterators that open (engine.go)
// assembles:
//
//	scan ─▶ filter ─▶ probe… ─▶ residual ─▶ project ─▶ sort ─▶ distinct ─▶ limit
//	                                      └▶ group ───┘
//
// The front of the tree — scan through residual, the "chain" — is built per
// worker over a contiguous range of the source (pipeline.chain), so a large
// source runs as Parallelism independent chains whose outputs recombine in
// shard order: row batches through the shard-order merger
// (stream_shard.go), group states through AggState.Merge (agg.go). Sort,
// grouped accumulation, DISTINCT and the hash-join builds are the pipeline
// breakers; they do their blocking work on the first pull, so a stream that
// is closed — or LIMIT-0'd — before anyone reads it does nothing.
//
// A batch holds at most Engine.BatchSize rows (scans read that many, probes
// and group emission cap their output at it); batches shrink through
// filters and are never re-compacted, so a batch is only guaranteed
// non-empty. With BatchSize 0 the bound is infinite — one batch per shard.
// Sharded loops pin their shard bounds to the sequential scan's batch grid
// (shardStreamBounds) whenever the grid has a cell per worker, so per-batch
// statistics — not just rows — are then identical at every parallelism
// level. Rows are byte-identical at every batch size and parallelism level,
// with the single carve-out documented in parallel.go: SUM/AVG over Float
// columns may differ in the last ULP when sharded, because per-shard
// partial sums regroup the float additions.

// DefaultBatchSize is the batch size callers that just want bounded batches
// should use: large enough to amortize per-batch overhead, small enough
// that a pipeline's working set stays cache-resident. It is also the frame
// size ResultStream cuts an unbounded-batch result into.
const DefaultBatchSize = 1024

// batchIterator is the pull interface of the tree. next returns the next
// batch of rows, or nil when the stream is exhausted. close releases the
// stream early (LIMIT cut-off, abandoned ResultStream); next after close
// returns nil. Iterators are single-goroutine: a chain is pulled only by
// the worker that built it. A returned batch belongs to the caller, but
// the rows in it may alias table storage and are read-only.
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

// drain pulls a stream to exhaustion and closes it, which joins any shard
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
// or, when ids is non-nil, exactly the listed rows in list order (an
// index-restricted ascending id list, or an ordered index's emission
// order) — or a derived table's drained child tree. A base table's rows
// carry the cells at schema positions cols, in that order; nil means whole
// rows.
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
// rows per batch, and bytes either as the backend's real physical page
// reads (paged backends) or as the difference of the table's
// row-proportional byte prefix over positions — so the charges telescope to
// exactly t.Bytes·k/n for k of the table's n rows at any batch size and
// shard count (t.Bytes for a full scan), while an early-exited scan charges
// only what it read. A derived table's rows were charged by the child tree
// that produced them.
type scanIterator struct {
	st      *Stats
	src     *rowSource
	pos, hi int
	size    int
	closed  bool
}

func (it *scanIterator) next() ([][]value.Value, error) {
	if it.closed || it.pos >= it.hi {
		return nil, nil
	}
	lo, end := it.pos, batchEnd(it.pos, it.hi, it.size)
	it.pos = end
	t := it.src.t
	if t == nil {
		return it.src.rows[lo:end:end], nil
	}
	var b [][]value.Value
	var phys int64
	var err error
	if it.src.ids != nil {
		b, phys, err = t.FetchCols(it.src.ids[lo:end], it.src.cols)
	} else {
		b, phys, err = t.ScanCols(lo, end, it.src.cols)
	}
	if err != nil {
		return nil, err
	}
	if t.Paged() {
		it.st.BytesScanned += phys
	} else {
		n := int64(t.NumRows())
		it.st.BytesScanned += t.Bytes*int64(end)/n - t.Bytes*int64(lo)/n
	}
	it.st.RowsScanned += int64(end - lo)
	it.st.BatchesStreamed++
	return b, nil
}

func (it *scanIterator) close() { it.closed = true }

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
		for _, row := range b {
			en := &env{rel: it.rel, row: row, outer: it.outer, ctx: it.c}
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
// output is far larger than its input.
type probeIterator struct {
	in    batchIterator
	step  *joinStep
	outer *env
	c     *execCtx

	// Expansion state carried across next calls.
	batch   [][]value.Value // input batch being consumed
	bi      int             // next input row in batch
	lrow    []value.Value   // probe row whose matches are mid-emission
	matches [][]value.Value // its remaining build rows start at mi
	mi      int
}

func (it *probeIterator) next() ([][]value.Value, error) {
	var out [][]value.Value
	for {
		// Drain the in-flight expansion first.
		for it.mi < len(it.matches) {
			if len(out) >= it.c.batch {
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
			continue
		}
		lrow := it.batch[it.bi]
		it.bi++
		if it.step.build == nil {
			it.lrow, it.matches, it.mi = lrow, it.step.right, 0
			continue
		}
		en := &env{rel: it.step.probe, row: lrow, outer: it.outer, ctx: it.c}
		key, null, err := exprKey(en, it.step.leftKeys)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		it.lrow, it.matches, it.mi = lrow, it.step.build.lookup(key), 0
	}
}

func (it *probeIterator) close() { it.in.close() }

// projectIterator evaluates the SELECT list for each row of a batch. When
// the block sorts, every output row carries its ORDER BY key values after
// the projected cells (projectRow) for the sort breaker downstream.
type projectIterator struct {
	in      batchIterator
	q       *ast.Query
	order   []ast.OrderItem
	rel     *relation
	aliases map[string]ast.Expr
	outer   *env
	c       *execCtx
}

func (it *projectIterator) next() ([][]value.Value, error) {
	b, err := it.in.next()
	if err != nil || b == nil {
		return nil, err
	}
	out := make([][]value.Value, len(b))
	for i, row := range b {
		en := &env{rel: it.rel, row: row, outer: it.outer, aliases: it.aliases, ctx: it.c}
		if out[i], err = projectRow(en, it.q, it.order); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (it *projectIterator) close() { it.in.close() }

// distinctIterator is DISTINCT: a seen-set over the rows emits only each
// row's first occurrence, batch-at-a-time. Batches the dedup empties
// entirely are skipped, like filterIterator's. A sharded block runs it
// twice — once at the end of every worker's chain (within one shard only a
// key's first occurrence can be globally first, so the rest never cross the
// merger) and once over the merged stream, where shard order makes the
// survivors exactly the sequential scan's first occurrences.
type distinctIterator struct {
	in   batchIterator
	seen map[string]bool
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
			if k := distinctKey(row); !it.seen[k] {
				it.seen[k] = true
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
// input, cancelling any shard workers and cutting the scan and its charged
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
// a bounded heap instead of the whole input. A sharded block runs the
// bounded form twice: each worker's chain ends in a pre-pass that forwards
// its shard's k best, still keyed and in rank order, and the final pass
// over the merged stream — where shard order is arrival order — keeps the
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
