package engine

import (
	"sync"

	"repro/internal/value"
)

// The shard-order merger. A block's chains evaluate source ranges
// independently of each other, so its batches can be produced by
// Parallelism workers — each running its own chain over a contiguous range
// — and emitted through one merger that drains the per-shard queues
// strictly in shard order. Shard order is row order, so the merged stream
// carries exactly the rows, in exactly the order, the one-chain stream
// emits.
//
// Shard ranges are aligned to batch-size multiples (shardStreamBounds)
// whenever the batch grid has a cell per worker, so every worker's scan
// batches coincide with the sequential scan's batch grid: for single-table
// chains the merged stream then reproduces the sequential stream's batch
// *frames* too, not just its rows. (Join probes may split an expansion at
// a shard seam, so only their rows — not their frame boundaries — are
// pinned.)
//
// Accounting is shard-merged, never racily added: each worker accumulates
// into its own shard context and attaches a cumulative Stats snapshot to
// every message; the merger folds the per-shard deltas into the stream's
// context as it receives them, and folds each worker's residual (work
// whose batches never shipped — trailing filtered-out scans, an abandoned
// stream's in-flight readahead) once the worker has provably exited. The
// consumer goroutine is therefore the only writer of the stream's Stats,
// mid-stream snapshots count exactly the work whose output has been
// emitted (so the first batch's RowsScanned stays batch-proportional at
// every parallelism level), and a drained stream's totals telescope to the
// sequential counts.

// shardStreamBuffer is the per-shard channel capacity: enough readahead to
// keep a worker busy while the merger drains an earlier shard, small
// enough that an abandoned stream never buffers more than a few batches
// per worker.
const shardStreamBuffer = 2

// shardMsg is one producer→merger message: a batch plus the worker's
// cumulative stats at send time.
type shardMsg struct {
	rows [][]value.Value
	cum  Stats
	err  error
}

// shardStreamBounds splits n rows into `shards` contiguous ranges. When
// the sequential scan's batch grid has at least one cell per worker the
// boundaries fall on multiples of the batch size, so each shard's scan
// batches land on the same grid a sequential scan uses (the final shard
// keeps the short tail batch). A coarser grid — down to the single cell of
// an unbounded batch — would leave workers idle, so the range then splits
// evenly and only rows, not batch boundaries, match the sequential scan.
func shardStreamBounds(n, shards, size int) [][2]int {
	nb := 0 // scan batches on the sequential grid
	if n > 0 {
		nb = (n-1)/size + 1
	}
	if nb < shards {
		return shardBounds(n, shards)
	}
	out := make([][2]int, shards)
	blo := 0
	for i := 0; i < shards; i++ {
		bhi := blo + (nb-blo)/(shards-i)
		lo, hi := blo*size, bhi*size
		if hi > n {
			hi = n
		}
		out[i] = [2]int{lo, hi}
		blo = bhi
	}
	return out
}

// shardedStream is the multi-producer batchIterator: next() is the merger,
// close() the cancellation path. Producers start lazily on the first pull,
// so a stream that is closed (or LIMIT-0-satisfied) before anyone reads it
// never spawns a goroutine.
type shardedStream struct {
	c *execCtx
	// mkChain assembles an independent iterator chain over [lo,hi)
	// evaluating on the given shard context.
	mkChain func(sc *execCtx, lo, hi int) batchIterator
	bounds  [][2]int

	started bool
	chans   []chan shardMsg
	scs     []*execCtx // worker contexts; stats readable once the worker exits
	folded  []Stats    // per-shard cumulative stats already folded into c
	settled []bool     // per-shard residual fold done
	done    chan struct{}
	wg      sync.WaitGroup
	stop    sync.Once

	cur int
}

// newShardedStream builds the producer pool over the given bounds.
func newShardedStream(c *execCtx, mkChain func(sc *execCtx, lo, hi int) batchIterator, bounds [][2]int) *shardedStream {
	return &shardedStream{c: c, mkChain: mkChain, bounds: bounds, done: make(chan struct{})}
}

func (ss *shardedStream) start() {
	ss.chans = make([]chan shardMsg, len(ss.bounds))
	ss.scs = make([]*execCtx, len(ss.bounds))
	ss.folded = make([]Stats, len(ss.bounds))
	ss.settled = make([]bool, len(ss.bounds))
	for w := range ss.bounds {
		ch := make(chan shardMsg, shardStreamBuffer)
		sc := ss.c.shardCtx()
		ss.chans[w], ss.scs[w] = ch, sc
		ss.wg.Add(1)
		go ss.produce(w, sc, ch)
	}
}

// produce is one worker: it pulls its chain and pushes batches until the
// range is exhausted or the merger cancels.
func (ss *shardedStream) produce(w int, sc *execCtx, ch chan<- shardMsg) {
	defer ss.wg.Done()
	defer close(ch)
	it := ss.mkChain(sc, ss.bounds[w][0], ss.bounds[w][1])
	defer it.close()
	for {
		select {
		case <-ss.done:
			return
		default:
		}
		b, err := it.next()
		if b == nil && err == nil {
			return
		}
		select {
		case ch <- shardMsg{rows: b, cum: *sc.stats, err: err}:
		case <-ss.done:
			return
		}
		if err != nil {
			return
		}
	}
}

// next merges: drain shard 0's queue to completion, then shard 1's, and so
// on — shard order is row order.
func (ss *shardedStream) next() ([][]value.Value, error) {
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
		return msg.rows, msg.err
	}
	return nil, nil
}

// fold accumulates the delta between a worker's cumulative snapshot and
// what has already been folded for that shard. Only the consumer goroutine
// calls it, so the stream's Stats have a single writer.
func (ss *shardedStream) fold(w int, cum Stats) {
	d := cum
	d.Sub(ss.folded[w])
	ss.folded[w] = cum
	ss.c.stats.Add(d)
}

// settle folds a worker's residual stats — work performed after its last
// message (trailing batches a filter emptied, readahead an abandoned
// stream never consumed). Safe only once the worker has exited: the
// channel close (or wg.Wait in close) happens-before this read.
func (ss *shardedStream) settle(w int) {
	if ss.settled[w] {
		return
	}
	ss.settled[w] = true
	ss.fold(w, *ss.scs[w].stats)
}

// close cancels in-flight producers, waits for every worker to exit, and
// folds their residual charges — an abandoned stream charges exactly the
// work its workers actually performed, and leaks nothing.
func (ss *shardedStream) close() {
	ss.stop.Do(func() {
		close(ss.done)
		if !ss.started {
			ss.started = true // never start a producer after close
			return
		}
		ss.wg.Wait()
		for w := range ss.scs {
			ss.settle(w)
		}
	})
}
