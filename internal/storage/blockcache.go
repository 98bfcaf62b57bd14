package storage

import (
	"container/list"

	"repro/internal/value"
)

// blockCache is the disk backend's LRU page cache: decoded pages keyed by
// page index, evicted least-recently-used once the resident byte total
// exceeds the capacity. Caching decoded rows (not raw page bytes) means a
// hit costs neither a read nor a re-decode; accounting still uses the
// page's on-disk size, so the capacity is comparable to the file size and
// "table larger than the cache" means what it says.
//
// A cached page is the [][]value.Value decodePage built: row cuts of one
// value arena whose Bytes and Str cells point into the page's raw buffer.
// Evicting a page only drops the cache's reference; batches handed out
// earlier keep the arena and buffer alive, so nothing here may ever be
// recycled.
//
// The cache is not internally synchronized: diskStore guards every access
// with its own mutex (shard workers scan concurrently).
type blockCache struct {
	cap   int64
	used  int64
	ll    *list.List // front = most recently used
	pages map[int]*list.Element

	hits, misses int64
}

// cachedPage is one resident decoded page.
type cachedPage struct {
	idx   int
	rows  [][]value.Value
	bytes int64 // on-disk page size, the accounting unit
}

func newBlockCache(capBytes int64) *blockCache {
	return &blockCache{cap: capBytes, ll: list.New(), pages: make(map[int]*list.Element)}
}

// get returns the decoded rows of page idx, or nil on a miss, updating the
// hit/miss counters and the recency order.
func (c *blockCache) get(idx int) [][]value.Value {
	el, ok := c.pages[idx]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cachedPage).rows
}

// put inserts a freshly read page, evicting from the LRU tail until the
// byte total fits. A page larger than the whole capacity is admitted alone
// (the next insert evicts it); refusing it would make oversized-row pages
// permanently uncacheable.
func (c *blockCache) put(idx int, rows [][]value.Value, bytes int64) {
	if el, ok := c.pages[idx]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.pages[idx] = c.ll.PushFront(&cachedPage{idx: idx, rows: rows, bytes: bytes})
	c.used += bytes
	for c.used > c.cap && c.ll.Len() > 1 {
		tail := c.ll.Back()
		p := tail.Value.(*cachedPage)
		c.ll.Remove(tail)
		delete(c.pages, p.idx)
		c.used -= p.bytes
	}
}

// drop removes a page (the tail page is re-read after being rewritten).
func (c *blockCache) drop(idx int) {
	if el, ok := c.pages[idx]; ok {
		p := el.Value.(*cachedPage)
		c.ll.Remove(el)
		delete(c.pages, p.idx)
		c.used -= p.bytes
	}
}
