package storage

import "container/list"

// blockCache is the disk backend's LRU page cache and its pool of page
// frames. A resident entry is a verified page image keyed by page index,
// evicted least-recently-used once the resident byte total exceeds the
// capacity. An entry is the page's raw buffer plus its column regions and
// tagged cell offsets (pageImage) — what was read, checksummed and
// bounds-checked, not what a query will decode from it — so an entry's
// footprint is its on-disk size, which is also the accounting unit: the
// capacity bounds what is actually resident and "table larger than the
// cache" means what it says. A hit saves the read, the checksum and the
// region checks; it still pays for cutting the cells the caller wants out
// of the image, which costs in proportion to the columns asked for, not to
// the page.
//
// Frames are recycled, as a DBMS buffer pool recycles them. A reader pins
// the frame it decodes from (get, or frame and put for a miss) and unpins
// it when it has cut its cells (release); an evicted frame goes to the
// free list only once its last pin goes, so a reader decoding unlocked
// never sees its buffer rewritten. A miss takes a frame from the free list
// (or allocates one) and reads into it, reusing the buffer and its region
// and offset slices; a miss whose read fails releases its frame. No cell a
// reader returns points into a frame: appendCols copies each Bytes cell
// out, and Str cells alias the decoder's string copy, which belongs to the
// image, not the frame.
//
// The cache is not internally synchronized: diskStore guards every access
// with its own mutex (shard workers scan concurrently).
type blockCache struct {
	cap      int64
	pageSize int
	used     int64
	ll       *list.List // front = most recently used
	pages    map[int]*list.Element
	free     []*cachedPage // unpinned, non-resident frames of pageSize bytes

	hits, misses int64
}

// maxFreeFrames bounds the free list. Eviction feeds it one frame per miss
// once the cache is full, and the next miss drains it, so it only grows
// when pinned evicted frames come back together; past the bound a frame is
// left to the collector.
const maxFreeFrames = 16

// cachedPage is one page frame: resident in the cache, held by readers after
// eviction, or free.
type cachedPage struct {
	idx      int
	raw      []byte    // the buffer the page was read into; img windows it
	img      pageImage // valid while resident or pinned
	bytes    int64     // on-disk page size, the accounting unit
	pins     int       // readers between get/frame and release
	resident bool      // in pages and ll
}

func newBlockCache(capBytes int64, pageSize int) *blockCache {
	return &blockCache{cap: capBytes, pageSize: pageSize, ll: list.New(), pages: make(map[int]*list.Element)}
}

// get returns the pinned frame of page idx and whether it was resident,
// updating the hit/miss counters and the recency order.
func (c *blockCache) get(idx int) (*cachedPage, bool) {
	el, ok := c.pages[idx]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	p := el.Value.(*cachedPage)
	p.pins++
	return p, true
}

// frame returns a pinned, non-resident frame whose raw buffer holds physLen
// bytes, for a miss to read into: a free one when the page is an ordinary
// one, else a fresh allocation. An oversized single-row page gets a buffer
// of its own size, which release never recycles.
func (c *blockCache) frame(physLen int64) *cachedPage {
	if n := len(c.free); n > 0 && physLen <= int64(c.pageSize) {
		p := c.free[n-1]
		c.free = c.free[:n-1]
		p.raw = p.raw[:physLen]
		p.pins = 1
		return p
	}
	return &cachedPage{raw: make([]byte, physLen, max(physLen, int64(c.pageSize))), pins: 1}
}

// put makes the loaded frame p page idx's resident entry, evicting from the
// LRU tail until the byte total fits, and returns the entry the caller now
// holds pinned. If a concurrent miss on the same page won the race, that
// resident entry is returned instead and p is released. A page larger than
// the whole capacity is admitted alone (the next insert evicts it); refusing
// it would make oversized-row pages permanently uncacheable.
func (c *blockCache) put(idx int, p *cachedPage, bytes int64) *cachedPage {
	if el, ok := c.pages[idx]; ok {
		c.ll.MoveToFront(el)
		c.release(p)
		q := el.Value.(*cachedPage)
		q.pins++
		return q
	}
	p.idx, p.bytes, p.resident = idx, bytes, true
	c.pages[idx] = c.ll.PushFront(p)
	c.used += bytes
	for c.used > c.cap && c.ll.Len() > 1 {
		tail := c.ll.Back()
		q := tail.Value.(*cachedPage)
		c.ll.Remove(tail)
		delete(c.pages, q.idx)
		c.used -= q.bytes
		q.resident = false
		if q.pins == 0 {
			c.recycle(q)
		}
	}
	return p
}

// release drops one pin of p; an evicted frame whose last pin goes is
// recycled.
func (c *blockCache) release(p *cachedPage) {
	p.pins--
	if p.pins == 0 && !p.resident {
		c.recycle(p)
	}
}

// recycle puts an unpinned, evicted frame on the free list, keeping its
// buffer and its region and offset slices. Oversized frames and frames past
// the bound are dropped.
func (c *blockCache) recycle(p *cachedPage) {
	if cap(p.raw) != c.pageSize || len(c.free) >= maxFreeFrames {
		return
	}
	p.img = pageImage{cols: p.img.cols[:0], offs: p.img.offs[:0]}
	c.free = append(c.free, p)
}
