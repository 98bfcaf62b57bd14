package engine

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Morsel-driven execution (Leis et al., "Morsel-driven parallelism",
// SIGMOD 2014). The engine parallelizes a query block by cutting its source
// into contiguous row ranges, morsels, each run as its own iterator chain —
// scan, filter, hash-join probes, projection or grouped accumulation.
// Morsel boundaries follow from the source's row count alone (morselSize):
// a morsel is morselBatches scan batches, and a source of fewer than two
// such morsels splits in halves. A block of one morsel runs on the calling
// goroutine; a larger one runs on min(GOMAXPROCS, morsels) workers, each
// taking the next morsel from one shared counter. Every morsel accumulates
// into its own state — stats, group sets, output batches — merged back in
// morsel order, so rows, row order, group first-appearance order, the first
// error, Float SUM/AVG bits and the Stats are a function of the data, never
// of the worker count.
//
// Everything an expression can touch during evaluation is read-only while a
// chain runs: params, the catalog, registered UDFs, drained build sides, and
// the subquery plans — open plans a block's subqueries before its first
// chain exists (subquery.go), so a predicate, SELECT list or grouping that
// names one evaluates in any morsel, and a naive subquery re-opens per outer
// row on the worker that holds the row. Only a block evaluated under an
// outer row environment is one morsel (execCtx.morsels); since a worker
// opens a block only beneath such a row, no worker starts workers.

// morselBatches is a morsel's length in scan batches: 8 192 rows at
// DefaultBatchSize. A stream's batches therefore stay on the scan's batch
// grid, and a drain moves one batch per morsel.
const morselBatches = 8

// minMorselRows is the smallest morsel worth a goroutine: a source of fewer
// than two such morsels is one morsel.
const minMorselRows = 32

// morselRows is the rows of one full morsel: morselBatches batches of the
// engine's batch grid — DefaultBatchSize, or a test's smaller override, so
// that small fixtures cross morsel seams.
func (e *Engine) morselRows() int {
	b := DefaultBatchSize
	if e.batchSize > 0 {
		b = min(e.batchSize, math.MaxInt/morselBatches)
	}
	return morselBatches * b
}

// morselSize is the rows of every morsel of an n-row source but the last.
// A source of two full morsels or more cuts into full morsels. A smaller
// one of at least 2·minMorselRows rows splits at n/2: the probe source of
// a join is often a small table whose rows each drive a large expansion
// (TPC-H Q5 probes from its 1 500 customers), and as one morsel it would
// run on one core. Anything smaller is one morsel.
func (c *execCtx) morselSize(n int) int {
	m := c.eng.morselRows()
	switch {
	case n >= 2*m:
		return m
	case n >= 2*minMorselRows:
		return (n + 1) / 2
	}
	return max(n, 1)
}

// morselCount is how many morsels n source rows cut into: at least one.
func (c *execCtx) morselCount(n int) int {
	if n <= 0 {
		return 1
	}
	return (n-1)/c.morselSize(n) + 1
}

// morsel returns the half-open row range [lo,hi) of morsel i of n rows.
func (c *execCtx) morsel(i, n int) (lo, hi int) {
	size := c.morselSize(n)
	lo = i * size
	return lo, batchEnd(lo, n, size)
}

// parallelFor runs fn(0..n-1) on min(GOMAXPROCS, n) workers, each taking
// the next index from a shared counter, or in turn on the calling goroutine
// when that is one worker, and returns the error of the lowest index that
// failed. Indexes are claimed in ascending order and no worker claims one
// after a failure, so every index below a failed one has run: the error
// returned does not depend on the worker count.
func parallelFor(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// morselCtx creates the child context of one morsel: it shares the engine,
// params and subquery plans (all read-only while chains run) and
// accumulates stats locally. The batch size carries over so a morsel's
// chain pulls the batches a one-morsel chain would, and the statement's
// column set so a block opened on a worker lays its tables out as the
// opening context does.
func (c *execCtx) morselCtx() *execCtx {
	return &execCtx{eng: c.eng, params: c.params, stats: &Stats{}, subq: c.subq, batch: c.batch, stmt: c.stmt, aliased: c.aliased}
}

// morselCollect runs fn over every morsel of n input rows, each on its own
// child context, and returns the per-morsel results in morsel order. Morsel
// stats fold into c after the barrier; on error none fold (the query is
// abandoned anyway).
func morselCollect[T any](c *execCtx, n int, fn func(sc *execCtx, lo, hi int) (T, error)) ([]T, error) {
	parts := make([]T, c.morselCount(n))
	stats := make([]Stats, len(parts))
	err := parallelFor(len(parts), func(i int) error {
		sc := c.morselCtx()
		lo, hi := c.morsel(i, n)
		var err error
		parts[i], err = fn(sc, lo, hi)
		stats[i] = *sc.stats
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, st := range stats {
		c.stats.Add(st)
	}
	return parts, nil
}
