package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// The morsel-order merger. A block's chains evaluate source ranges
// independently of each other, so the batches of a block of several
// morsels are produced by min(GOMAXPROCS, morsels) workers — each claiming
// the next morsel from a shared counter and running its own chain over it
// — and emitted through one merger that drains one queue per morsel
// strictly in morsel order. Morsel order is row order, so the merged stream
// carries exactly the rows, in exactly the order, of one chain over the
// whole source. Workers claim morsels in ascending order, so the lowest
// morsel the merger has not finished always has a live producer or is
// done: a worker blocked on a later morsel's full queue cannot starve it.
//
// A full morsel is a whole number of scan batches (parallel.go), so its
// chain's scan batches land on the grid one chain over the whole source
// would read; the halves of a smaller source, and join probes, may cut a
// batch at a morsel seam, so there only rows — not frame boundaries — match
// one chain's. Either way the morsels, and with them every frame, are the
// same at every worker count.
//
// Accounting is morsel-merged, never racily added: each morsel accumulates
// into its own context and attaches a cumulative Stats snapshot to every
// message; the merger folds the per-morsel deltas into the stream's context
// as it receives them, and folds each morsel's residual (work whose batches
// never shipped — trailing filtered-out scans, an abandoned stream's
// in-flight readahead) once its producer has provably finished it. The
// consumer goroutine is therefore the only writer of the stream's Stats,
// mid-stream snapshots count exactly the work whose output has been
// emitted (so the first batch's RowsScanned stays batch-proportional), and
// a drained stream's totals telescope to one chain's counts.

// morselQueue is the per-morsel channel capacity: enough readahead to keep
// a worker busy while the merger drains an earlier morsel, small enough
// that an abandoned stream never buffers more than a few batches per
// worker.
const morselQueue = 2

// morselMsg is one producer→merger message: a batch plus the morsel's
// cumulative stats at send time.
type morselMsg struct {
	rows [][]value.Value
	cum  Stats
	err  error
}

// morselStream is the multi-producer batchIterator: next() is the merger,
// close() the cancellation path. Producers start lazily on the first pull,
// so a stream that is closed (or LIMIT-0-satisfied) before anyone reads it
// never spawns a goroutine.
type morselStream struct {
	c *execCtx
	// mkChain assembles an independent iterator chain over [lo,hi)
	// evaluating on the given morsel context.
	mkChain func(sc *execCtx, lo, hi int) batchIterator
	n       int // source rows

	started bool
	claim   atomic.Int64     // the next morsel to produce
	failed  atomic.Bool      // a morsel failed: claim no more
	chans   []chan morselMsg // one queue per morsel
	scs     []*execCtx       // morsel contexts; stats readable once the queue is closed
	folded  []Stats          // per-morsel cumulative stats already folded into c
	settled []bool           // per-morsel residual fold done
	done    chan struct{}
	wg      sync.WaitGroup
	stop    sync.Once

	cur int
}

// newMorselStream builds the producer pool over n source rows.
func newMorselStream(c *execCtx, mkChain func(sc *execCtx, lo, hi int) batchIterator, n int) *morselStream {
	return &morselStream{c: c, mkChain: mkChain, n: n, done: make(chan struct{})}
}

func (ss *morselStream) start() {
	k := ss.c.morselCount(ss.n)
	ss.chans = make([]chan morselMsg, k)
	for i := range ss.chans {
		ss.chans[i] = make(chan morselMsg, morselQueue)
	}
	ss.scs = make([]*execCtx, k)
	ss.folded = make([]Stats, k)
	ss.settled = make([]bool, k)
	workers := min(runtime.GOMAXPROCS(0), k)
	ss.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go ss.produce()
	}
}

// produce is one worker: it claims morsels in ascending order and runs
// each to its queue until every morsel is claimed, one has failed, or the
// merger cancels. Every morsel below a failed one was claimed before it, so
// the merger meets the first error in morsel order whatever the worker
// count.
func (ss *morselStream) produce() {
	defer ss.wg.Done()
	for !ss.failed.Load() {
		i := int(ss.claim.Add(1) - 1)
		if i >= len(ss.chans) || !ss.run(i) {
			return
		}
	}
}

// run pulls morsel i's chain into its queue, then closes the queue; false
// when the merger cancelled or the morsel failed, its last message then
// carrying the error.
func (ss *morselStream) run(i int) bool {
	ch, sc := ss.chans[i], ss.c.morselCtx()
	ss.scs[i] = sc
	defer close(ch)
	lo, hi := ss.c.morsel(i, ss.n)
	it := ss.mkChain(sc, lo, hi)
	defer it.close()
	for {
		select {
		case <-ss.done:
			return false
		default:
		}
		b, err := it.next()
		if b == nil && err == nil {
			return true
		}
		select {
		case ch <- morselMsg{rows: b, cum: *sc.stats, err: err}:
		case <-ss.done:
			return false
		}
		if err != nil {
			ss.failed.Store(true)
			return false
		}
	}
}

// next merges: drain morsel 0's queue to completion, then morsel 1's, and
// so on — morsel order is row order. The stream ends at its first error:
// the morsels after it may never have been claimed.
func (ss *morselStream) next() ([][]value.Value, error) {
	if !ss.started {
		ss.started = true
		ss.start()
	}
	for ss.cur < len(ss.chans) {
		msg, ok := <-ss.chans[ss.cur]
		if !ok {
			ss.settle(ss.cur)
			ss.cur++
			continue
		}
		ss.fold(ss.cur, msg.cum)
		if msg.err != nil {
			ss.cur = len(ss.chans)
		}
		return msg.rows, msg.err
	}
	return nil, nil
}

// fold accumulates the delta between a morsel's cumulative snapshot and
// what has already been folded for it. Only the consumer goroutine calls
// it, so the stream's Stats have a single writer.
func (ss *morselStream) fold(i int, cum Stats) {
	d := cum
	d.Sub(ss.folded[i])
	ss.folded[i] = cum
	ss.c.stats.Add(d)
}

// settle folds a morsel's residual stats — work performed after its last
// message (trailing batches a filter emptied, readahead an abandoned stream
// never consumed). Safe only once its producer has finished it: the queue's
// close (or wg.Wait in close) happens-before this read.
func (ss *morselStream) settle(i int) {
	if ss.settled[i] {
		return
	}
	ss.settled[i] = true
	ss.fold(i, *ss.scs[i].stats)
}

// close cancels in-flight producers, waits for every worker to exit, and
// folds the residual charges of every morsel they started — an abandoned
// stream charges exactly the work its workers actually performed, and
// leaks nothing. Later pulls return nothing: unclaimed morsels' queues are
// never closed.
func (ss *morselStream) close() {
	ss.stop.Do(func() {
		close(ss.done)
		if !ss.started {
			ss.started = true // never start a producer after close
			return
		}
		ss.wg.Wait()
		for i, sc := range ss.scs {
			if sc != nil {
				ss.settle(i)
			}
		}
		ss.cur = len(ss.chans)
	})
}
