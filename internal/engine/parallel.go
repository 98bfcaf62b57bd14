package engine

import (
	"runtime"
	"sync"
)

// Sharded execution. The engine parallelizes a query block by partitioning
// its source into contiguous row-range shards, each run as its own iterator
// chain — scan, filter, hash-join probes, projection or grouped
// accumulation — by one worker. Shards accumulate into shard-local state
// (stats, group maps, output batches) that is merged back in shard order,
// so the output — row order, group first-appearance order, and first-error
// choice — is byte-identical to the sequential path, with one carve-out:
// SUM/AVG over Float columns associates the float additions per shard
// rather than in one left fold, so those aggregates can differ from the
// sequential result in the last ULP (deterministically, for a fixed shard
// count).
//
// Everything an expression can touch during evaluation is read-only while a
// chain runs: params, the catalog, registered UDFs, drained build sides, and
// the subquery plans — open plans a block's subqueries before its first
// chain exists (subquery.go), so a predicate, SELECT list or grouping that
// names one evaluates on any shard, and a naive subquery re-opens per outer
// row on the worker that holds the row. Only a block evaluated under an
// outer row environment does not shard (execCtx.shards).

// minShardRows is the smallest row range worth a goroutine; relations
// smaller than two shards' worth always run sequentially.
const minShardRows = 32

// effectiveParallelism resolves the engine's Parallelism knob: values < 1
// mean "use every core" (GOMAXPROCS), 1 forces the sequential path.
func (e *Engine) effectiveParallelism() int {
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// shardCount decides how many shards to split n rows into: at most the
// context's parallelism, and never so many that a shard drops below
// minShardRows.
func (c *execCtx) shardCount(n int) int {
	if c.par <= 1 || n < 2*minShardRows {
		return 1
	}
	s := n / minShardRows
	if s > c.par {
		s = c.par
	}
	return s
}

// shardBounds returns the half-open row ranges [lo,hi) of each shard,
// splitting n rows as evenly as possible.
func shardBounds(n, shards int) [][2]int {
	out := make([][2]int, shards)
	lo := 0
	for i := 0; i < shards; i++ {
		hi := lo + (n-lo)/(shards-i)
		out[i] = [2]int{lo, hi}
		lo = hi
	}
	return out
}

// parallelDo runs fn(0..shards-1) on separate goroutines and returns the
// first error in shard order (matching the row order a sequential scan
// would have hit it in).
func parallelDo(shards int, fn func(shard int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, shards)
	wg.Add(shards)
	for i := 0; i < shards; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shardCtx creates a child context for one shard: it shares the engine,
// params and subquery plans (all read-only while chains run), accumulates
// stats locally, and never spawns nested shards. The batch size carries over
// so shard workers pull the same batches a sequential chain would, and the
// statement's column set so a block opened on a worker lays its tables out
// as the opening context does.
func (c *execCtx) shardCtx() *execCtx {
	return &execCtx{eng: c.eng, params: c.params, stats: &Stats{}, subq: c.subq, par: 1, batch: c.batch, useIdx: c.useIdx, stmt: c.stmt, aliased: c.aliased}
}

// shardedCollect splits n input rows into shards, runs fn over each shard
// on its own child context, and returns the per-shard results in shard
// order. Shard stats fold into c after the barrier; on error no stats are
// folded (the query is abandoned anyway).
func shardedCollect[T any](c *execCtx, shards, n int, fn func(sc *execCtx, lo, hi int) (T, error)) ([]T, error) {
	return shardedCollectBounds(c, shardBounds(n, shards), fn)
}

// shardedCollectBounds is shardedCollect over caller-supplied shard
// ranges — how grouped accumulation pins its shards to the scan's batch
// grid (shardStreamBounds).
func shardedCollectBounds[T any](c *execCtx, bounds [][2]int, fn func(sc *execCtx, lo, hi int) (T, error)) ([]T, error) {
	shards := len(bounds)
	parts := make([]T, shards)
	stats := make([]Stats, shards)
	err := parallelDo(shards, func(s int) error {
		sc := c.shardCtx()
		out, err := fn(sc, bounds[s][0], bounds[s][1])
		if err != nil {
			return err
		}
		parts[s] = out
		stats[s] = *sc.stats
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, st := range stats {
		c.stats.Add(st)
	}
	return parts, nil
}
