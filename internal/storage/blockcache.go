package storage

import "container/list"

// blockCache is the disk backend's LRU page cache: verified page images
// keyed by page index, evicted least-recently-used once the resident byte
// total exceeds the capacity. An entry is the page's raw buffer plus a row
// offset table (pageImage) — what was read, checksummed and bounds-checked,
// not what a query will decode from it — so an entry's footprint is its
// on-disk size, which is also the accounting unit: the capacity bounds what
// is actually resident and "table larger than the cache" means what it
// says. A hit saves the read, the checksum and the frame walk; it still
// pays for cutting the cells the caller wants out of the image, which costs
// in proportion to the columns asked for, not to the page.
//
// Entries are immutable. Evicting one only drops the cache's reference:
// the Bytes and Str cells of rows handed out earlier point into the image's
// buffer and keep it alive, so nothing here may ever be recycled.
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

// cachedPage is one resident page.
type cachedPage struct {
	idx   int
	img   pageImage
	bytes int64 // on-disk page size, the accounting unit
}

func newBlockCache(capBytes int64) *blockCache {
	return &blockCache{cap: capBytes, ll: list.New(), pages: make(map[int]*list.Element)}
}

// get returns the image of page idx and whether it was resident, updating
// the hit/miss counters and the recency order.
func (c *blockCache) get(idx int) (pageImage, bool) {
	el, ok := c.pages[idx]
	if !ok {
		c.misses++
		return pageImage{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cachedPage).img, true
}

// put inserts a freshly read page, evicting from the LRU tail until the
// byte total fits. A page larger than the whole capacity is admitted alone
// (the next insert evicts it); refusing it would make oversized-row pages
// permanently uncacheable.
func (c *blockCache) put(idx int, img pageImage, bytes int64) {
	if el, ok := c.pages[idx]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.pages[idx] = c.ll.PushFront(&cachedPage{idx: idx, img: img, bytes: bytes})
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
