package client

// The plan cache backs the repeated-query fast path: compiled templates are
// cached per query shape (fastpath.go), so the second execution of a shape
// skips parse/prepare/rewrite/costing and only re-encrypts parameters.
// Entries fill under a single-flight protocol — when N goroutines miss the
// same key simultaneously, one plans and the rest wait for its template — and
// evict LRU under capacity pressure. A shape that planning proves
// untemplatable (see planner.Parameterize) is cached negatively.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
)

// PlanCacheStats is a point-in-time snapshot of the plan cache's counters.
type PlanCacheStats struct {
	Hits      int64 // executions served from a cached template
	Misses    int64 // executions that had to plan (incl. uncacheable shapes)
	Evictions int64 // entries dropped under capacity pressure
	Size      int   // entries currently cached (incl. negative entries)
}

// planEntry is a cache slot. done closes when the filling goroutine
// finishes planning; waiters block on it and then read plan, the shape's
// compiled template (nil after done means the fill failed, or the shape is
// uncacheable — a negative entry).
type planEntry struct {
	key  string
	elem *list.Element
	done chan struct{}
	plan *compiled
}

type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*planEntry
	lru     *list.List // front = most recently used

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		entries: make(map[string]*planEntry),
		lru:     list.New(),
	}
}

// acquire returns the entry for key and whether the caller is its leader
// (responsible for filling it). Non-leaders must wait on e.done before
// reading e.plan.
func (pc *planCache) acquire(key string) (e *planEntry, leader bool) {
	pc.mu.Lock()
	if e, ok := pc.entries[key]; ok {
		pc.lru.MoveToFront(e.elem)
		pc.mu.Unlock()
		return e, false
	}
	e = &planEntry{key: key, done: make(chan struct{})}
	e.elem = pc.lru.PushFront(e)
	pc.entries[key] = e
	pc.evictLocked()
	pc.mu.Unlock()
	return e, true
}

// evictLocked drops LRU entries until the cache fits its capacity. Pending
// (unfilled) entries can be evicted too — their leader still closes done,
// the entry just no longer lives in the map.
func (pc *planCache) evictLocked() {
	for pc.cap > 0 && pc.lru.Len() > pc.cap {
		back := pc.lru.Back()
		ev := back.Value.(*planEntry)
		pc.lru.Remove(back)
		delete(pc.entries, ev.key)
		pc.evictions.Add(1)
	}
}

// fill publishes the leader's planning outcome (plan == nil for an
// uncacheable shape) and wakes waiters.
func (pc *planCache) fill(e *planEntry, plan *compiled) {
	e.plan = plan
	close(e.done)
}

// abandon removes a failed entry so the next execution of the shape retries
// planning, then wakes waiters (who will see a nil plan and plan solo).
func (pc *planCache) abandon(e *planEntry) {
	pc.mu.Lock()
	if cur, ok := pc.entries[e.key]; ok && cur == e {
		pc.lru.Remove(e.elem)
		delete(pc.entries, e.key)
	}
	pc.mu.Unlock()
	close(e.done)
}

func (pc *planCache) stats() PlanCacheStats {
	pc.mu.Lock()
	n := len(pc.entries)
	pc.mu.Unlock()
	return PlanCacheStats{
		Hits:      pc.hits.Load(),
		Misses:    pc.misses.Load(),
		Evictions: pc.evictions.Load(),
		Size:      n,
	}
}

// purge empties the cache. Pending entries' leaders still close done; the
// entries just no longer live in the map.
func (pc *planCache) purge() {
	pc.mu.Lock()
	pc.entries = make(map[string]*planEntry)
	pc.lru.Init()
	pc.mu.Unlock()
}

// parseCache is a bounded SQL-string → parsed-shape cache. Cached ASTs are
// shared and treated as read-only: every consumer (hoisting, preparation)
// clones before mutating.
type parseCache struct {
	mu  sync.Mutex
	cap int
	m   map[string]*shape
}

func newParseCache(capacity int) *parseCache {
	return &parseCache{cap: capacity, m: make(map[string]*shape)}
}

// getOrParse returns sql's cached shape, parsing and normalizing it on a
// miss. The lock is held across the parse (~15 µs), so concurrent callers on
// one cold string share a single parse instead of each running their own.
func (pc *parseCache) getOrParse(sql string, parse func() (*ast.Query, error)) (*shape, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if s, ok := pc.m[sql]; ok {
		return s, nil
	}
	q, err := parse()
	if err != nil {
		return nil, err
	}
	if len(pc.m) >= pc.cap {
		// Arbitrary-member eviction: Go map iteration order serves as the
		// random draw.
		for k := range pc.m {
			delete(pc.m, k)
			break
		}
	}
	s := newShape(q)
	pc.m[sql] = s
	return s, nil
}

func (pc *parseCache) clear() {
	pc.mu.Lock()
	pc.m = make(map[string]*shape)
	pc.mu.Unlock()
}
