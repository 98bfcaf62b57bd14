package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/value"
	"repro/internal/wire"
)

// diskStore is the paged disk backend: one append-only segment file per
// table. A segment is scratch for one run — created empty, written, read
// back by the same process, never reopened — so it holds data pages only;
// the schema and the page directory live in memory.
//
// Segment layout:
//
//	offset 0              ┌──────────────────────────────────────────┐
//	                      │ page 0: nrows u32 │ used u32 │ crc32 u32 │
//	                      │   row: len u32 │ value frames …          │
//	                      │   row: len u32 │ value frames …   … pad  │
//	offset pageSize       ├──────────────────────────────────────────┤
//	                      │ page 1: …                                │
//	                      └──────────────────────────────────────────┘
//
// Pages are fixed-size (pageSize); a single row too large for one page
// gets an oversized page of exactly header+row bytes. Values use the wire
// encoding (internal/wire) except Bool, which the wire flattens into Int —
// the page codec adds a local tag so every column kind round-trips. Rows are
// buffered in an in-memory tail page and written out when the page fills
// or on Flush (the tail page is rewritten in place until it seals), so an
// encryption-time bulk load writes each page roughly once.
//
// Reads go through an LRU block cache of verified page images with hit/miss
// counters; a cache miss is exactly one physical page read, and Scan/Fetch
// report the bytes those misses read — the number the engine charges in
// place of the in-memory resident-byte approximation (Paged() == true).
//
// The read path is split in two. Loading a page (a miss) reads it, checks
// its checksum and bounds-checks every row and value frame once
// (verifyPage) into a page frame the block cache recycles; the cache keeps
// that image, raw bytes and row offsets.
// Serving rows from an image — on a hit as on a miss — decodes only what
// the caller asked for: Scan and Fetch take the schema positions to
// materialize and cut exactly those cells, stepping over the frames in
// between, into one value arena per call sized rows × wanted columns
// (appendCols; nil positions mean every column). Fetch decodes the rows it
// was asked for, not their pages. So a hit is not free, it costs a decode
// as narrow as the query; and a query that reads 4 of 24 columns never
// builds the other 20.
//
// Page frames are reused: an evicted page's buffer and row offsets go back
// to the cache's free list once no reader holds the frame, and the next miss
// reads into them (blockCache). So the rows Scan and Fetch return never
// point into a frame: their Bytes cells are copied out into a byte arena
// owned by the call's batch, and their Str cells alias the decoder's string
// copy of the page, made once per load and never reused. A held result
// keeps alive the bytes it projected, not the pages they came from. The
// rows are still read-only (Backend.Scan's contract): the cells of one
// batch share its arenas.
//
// mu guards the page directory, the tail page, the block cache and its
// pins, and the counters — not I/O, verification or decoding on the read
// side. A read snapshots its page's directory entry and probes the cache
// under mu, pinning the frame it gets or takes for a miss; it reads and
// verifies the page unlocked (sealed pages are immutable), re-locks to
// insert and count it, decodes unlocked again, and re-locks to unpin, so
// concurrent sessions and shard workers load and decode in parallel.
// Writes (Append, Flush, Close) hold mu throughout.
//
// Every integrity failure of a page read — a truncated or checksum-corrupt
// page, an undecodable row, a row of the wrong arity — returns a
// *SegmentError wrapping ErrCorruptSegment; a read that needs the file
// after Close returns ErrClosed.
type diskStore struct {
	path     string
	pageSize int
	ncols    int // Schema.Cols: every stored row's arity

	mu       sync.Mutex
	f        *os.File        // nil once closed
	dir      []pageMeta      // sealed pages, in file order
	nflushed int             // rows held by sealed pages
	tail     [][]value.Value // rows not yet in a sealed page (decoded)
	tailBuf  []byte          // their encoded payload
	tailOff  int64           // file offset the tail page writes to
	cache    *blockCache
	io       IOStats // PageReads, BytesRead; IO() adds the cache's hit/miss
}

// pageMeta locates one sealed page.
type pageMeta struct {
	off     int64
	physLen int64
	first   int // row id of the page's first row
	nrows   int
}

const (
	pageHeaderLen = 4 + 4 + 4 // nrows, used, crc32
	// pageTagBool is the page codec's local tag for Bool values: the wire
	// encoding (reused for every other kind) flattens Bool into Int, which
	// must not survive a round trip through the row store.
	pageTagBool = 6
)

// segPath is the segment file of a table.
func segPath(dir, table string) string { return filepath.Join(dir, table+".seg") }

// createDiskStore starts an empty segment file for a table of schema s. The
// file is scratch for this run: O_TRUNC discards whatever an earlier run
// left under the same name, and nothing ever reopens it.
func createDiskStore(cfg BackendConfig, s Schema) (*diskStore, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("storage: disk backend needs BackendConfig.Dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	path := segPath(cfg.Dir, s.Name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &diskStore{
		path: path, f: f, pageSize: cfg.pageBytes(), ncols: len(s.Cols),
		cache: newBlockCache(cfg.cacheBytes(), cfg.pageBytes()),
	}, nil
}

// --- value codec (wire encoding + a Bool tag) ---

// appendRow frames one row: u32 total value-frame length, then each value.
func appendRow(dst []byte, row []value.Value) ([]byte, error) {
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	start := len(dst)
	var err error
	for _, v := range row {
		if v.K == value.Bool {
			b := byte(0)
			if v.I != 0 {
				b = 1
			}
			dst = append(dst, pageTagBool, b)
			continue
		}
		if dst, err = wire.AppendValue(dst, v); err != nil {
			return nil, err
		}
	}
	binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-start))
	return dst, nil
}

// --- writes ---

func (ds *diskStore) Append(row []value.Value) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	before := len(ds.tailBuf)
	buf, err := appendRow(ds.tailBuf, row)
	if err != nil {
		return err
	}
	frame := len(buf) - before
	// A full tail page seals before this row starts a fresh one; a row that
	// alone overflows a page seals immediately as an oversized page.
	if before > 0 && len(buf)+pageHeaderLen > ds.pageSize {
		ds.tailBuf = buf[:before]
		if err := ds.sealTail(); err != nil {
			return err
		}
		buf = append(ds.tailBuf, buf[before:before+frame]...)
	}
	ds.tailBuf = buf
	ds.tail = append(ds.tail, row)
	if len(ds.tailBuf)+pageHeaderLen >= ds.pageSize {
		return ds.sealTail()
	}
	return nil
}

// writeTailPage writes the current tail rows as a page at tailOff and
// returns its physical length. Padding zero-fills to the page size.
func (ds *diskStore) writeTailPage() (int64, error) {
	used := len(ds.tailBuf)
	physLen := ds.pageSize
	if pageHeaderLen+used > physLen {
		physLen = pageHeaderLen + used
	}
	page := make([]byte, physLen)
	binary.BigEndian.PutUint32(page[0:4], uint32(len(ds.tail)))
	binary.BigEndian.PutUint32(page[4:8], uint32(used))
	binary.BigEndian.PutUint32(page[8:12], crc32.ChecksumIEEE(ds.tailBuf))
	copy(page[pageHeaderLen:], ds.tailBuf)
	if _, err := ds.f.WriteAt(page, ds.tailOff); err != nil {
		return 0, err
	}
	return int64(physLen), nil
}

// sealTail writes the tail page out and starts a new one.
func (ds *diskStore) sealTail() error {
	if len(ds.tail) == 0 {
		return nil
	}
	physLen, err := ds.writeTailPage()
	if err != nil {
		return err
	}
	ds.dir = append(ds.dir, pageMeta{off: ds.tailOff, physLen: physLen, first: ds.nflushed, nrows: len(ds.tail)})
	ds.nflushed += len(ds.tail)
	ds.tailOff += physLen
	ds.tail = nil
	ds.tailBuf = nil
	return nil
}

func (ds *diskStore) Flush() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	// The partial tail page is written in place but stays open in memory:
	// later appends extend it and rewrite the same offset.
	if len(ds.tail) == 0 {
		return nil
	}
	_, err := ds.writeTailPage()
	return err
}

func (ds *diskStore) Close() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.f == nil {
		return nil
	}
	err := ds.f.Sync()
	cerr := ds.f.Close()
	ds.f = nil
	if err == nil {
		err = cerr
	}
	return err
}

// --- reads ---

func (ds *diskStore) NumRows() int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.nflushed + len(ds.tail)
}

func (ds *diskStore) Paged() bool { return true }

func (ds *diskStore) IO() IOStats {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	io := ds.io
	io.CacheHits, io.CacheMisses = ds.cache.hits, ds.cache.misses
	return io
}

// pageAt returns the directory position of the sealed page holding row id.
func (ds *diskStore) pageAt(id int) int {
	return sort.Search(len(ds.dir), func(i int) bool {
		return ds.dir[i].first+ds.dir[i].nrows > id
	})
}

// pageImage is a sealed page as the block cache holds it: the payload of the
// page's raw buffer, verified once at load (verifyPage) and not written again
// while the frame is resident or pinned, plus where each row starts. Nothing
// is decoded ahead of a read: Scan and Fetch cut the cells a query wants out
// of the image on every call, hit or miss (appendCols).
//
// dec is shared by every reader of the image. That is safe because
// verification walked every frame with it: a page with Str cells already
// has its string copy, and the decoder writes nothing further.
type pageImage struct {
	payload []byte       // the checksummed row frames
	dec     wire.Decoder // over payload
	rows    []uint32     // payload offset of each row frame (its length prefix)
}

// sealedPage returns the pinned frame holding the verified image of the
// sealed page that holds row id, and that page's directory entry, via the
// block cache; the last result before the error is the physical bytes this
// call read (the page's size on a miss, 0 on a hit). The caller unpins the
// frame once it has cut its cells. The load between the two locked sections
// runs unlocked (see diskStore): two callers that miss on the same page each
// read it — both are real reads and both are counted.
func (ds *diskStore) sealedPage(id int) (*cachedPage, pageMeta, int64, error) {
	ds.mu.Lock()
	pi := ds.pageAt(id)
	pm := ds.dir[pi]
	if p, ok := ds.cache.get(pi); ok {
		ds.mu.Unlock()
		return p, pm, 0, nil
	}
	fr := ds.cache.frame(pm.physLen)
	f := ds.f // Close nils the field; the load must not read it unlocked
	ds.mu.Unlock()
	img, err := loadPage(f, fr.raw, fr.img.rows, ds.path, pm, ds.ncols)
	fr.img = img
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err != nil {
		ds.cache.release(fr)
		return nil, pm, 0, err
	}
	p := ds.cache.put(pi, fr, pm.physLen)
	ds.io.PageReads++
	ds.io.BytesRead += pm.physLen
	return p, pm, pm.physLen, nil
}

// unpin releases a frame sealedPage returned.
func (ds *diskStore) unpin(p *cachedPage) {
	ds.mu.Lock()
	ds.cache.release(p)
	ds.mu.Unlock()
}

// loadPage reads the page pm locates into raw (len(raw) == pm.physLen) and
// verifies it, appending its row offsets to rows[:0]. It touches no
// diskStore state, so callers run it without ds.mu.
func loadPage(f *os.File, raw []byte, rows []uint32, path string, pm pageMeta, ncols int) (pageImage, error) {
	err := os.ErrClosed // also what ReadAt reports when Close wins the race with it
	if f != nil {
		_, err = f.ReadAt(raw, pm.off)
	}
	switch {
	case errors.Is(err, os.ErrClosed):
		return pageImage{}, fmt.Errorf("storage: segment %s: %w", path, ErrClosed)
	case err != nil:
		return pageImage{}, corruptf(path, pm.off, "unreadable page: %v", err)
	}
	return verifyPage(raw, rows, path, pm, ncols)
}

// verifyPage checks a raw page against its directory entry and checksum,
// then walks every row frame and every value frame in it once: each must
// lie inside its parent and each row must hold ncols values. What it
// returns can therefore be cut by position without further checks failing.
// The row offsets go into rows[:0] when it has room for them (a recycled
// frame's slice; nil allocates). The image aliases raw, which must not be
// written again while the image is in use.
func verifyPage(raw []byte, rows []uint32, path string, pm pageMeta, ncols int) (pageImage, error) {
	if len(raw) < pageHeaderLen {
		return pageImage{}, corruptf(path, pm.off, "truncated page header")
	}
	nrows := int(binary.BigEndian.Uint32(raw[0:4]))
	used := int(binary.BigEndian.Uint32(raw[4:8]))
	sum := binary.BigEndian.Uint32(raw[8:12])
	if nrows != pm.nrows || pageHeaderLen+used > len(raw) {
		return pageImage{}, corruptf(path, pm.off, "page header changed shape (%d rows, %d bytes)", nrows, used)
	}
	payload := raw[pageHeaderLen : pageHeaderLen+used : pageHeaderLen+used]
	if crc32.ChecksumIEEE(payload) != sum {
		return pageImage{}, corruptf(path, pm.off, "page checksum mismatch")
	}
	// A row frame is at least its 4-byte length, so the payload size bounds
	// the allocation whatever the header claims.
	if want := min(nrows, used/4); cap(rows) < want {
		rows = make([]uint32, 0, want)
	}
	img := pageImage{payload: payload, dec: wire.NewDecoder(payload), rows: rows[:0]}
	pos := 0
	for r := 0; r < nrows; r++ {
		end, err := img.verifyRow(pos, ncols)
		if err != nil {
			return pageImage{}, corruptf(path, pm.off+int64(pageHeaderLen+pos), "row %d: %v", pm.first+r, err)
		}
		img.rows = append(img.rows, uint32(pos))
		pos = end
	}
	if pos != used {
		return pageImage{}, corruptf(path, pm.off, "page has %d trailing payload bytes", used-pos)
	}
	return img, nil
}

// verifyRow bounds-checks the row frame at payload[pos:] and every value
// frame in it, and returns the position after the row.
func (img *pageImage) verifyRow(pos, ncols int) (int, error) {
	if pos+4 > len(img.payload) {
		return 0, fmt.Errorf("truncated row length")
	}
	n := int(binary.BigEndian.Uint32(img.payload[pos : pos+4]))
	pos += 4
	if pos+n > len(img.payload) {
		return 0, fmt.Errorf("row frame (%d bytes) past end of page", n)
	}
	end := pos + n
	nvals := 0
	for ; pos < end; nvals++ {
		used, err := img.skip(pos, end)
		if err != nil {
			return 0, err
		}
		pos += used
	}
	if nvals != ncols {
		return 0, fmt.Errorf("%d values, schema has %d columns", nvals, ncols)
	}
	return end, nil
}

// skip validates the frame at payload[pos:end) — the page codec's Bool tag
// or a wire frame — and returns its length.
func (img *pageImage) skip(pos, end int) (int, error) {
	if img.payload[pos] == pageTagBool {
		if pos+2 > end {
			return 0, fmt.Errorf("truncated bool")
		}
		return 2, nil
	}
	return img.dec.Skip(pos, end)
}

// value decodes the frame skip validated at payload[pos:end). Bytes and Str
// cells are sub-slices of the image, never copies; appendCols copies the
// Bytes ones out.
func (img *pageImage) value(pos, end int) (value.Value, int, error) {
	if img.payload[pos] == pageTagBool {
		return value.NewBool(img.payload[pos+1] != 0), 2, nil
	}
	return img.dec.Value(pos, end)
}

// appendCols appends to b's arena the cells of the image's row r at the
// ascending schema positions cols (nil: every cell), stepping over the
// frames in between and stopping at the last one wanted. Bytes cells are
// copied into b's byte arena, so none of them points into the frame.
func (img *pageImage) appendCols(b *rowBatch, r int, cols []int) error {
	pos := int(img.rows[r])
	end := pos + 4 + int(binary.BigEndian.Uint32(img.payload[pos:pos+4]))
	pos += 4
	for col, k := 0, 0; pos < end && (cols == nil || k < len(cols)); col++ {
		if cols != nil && cols[k] != col {
			used, err := img.skip(pos, end)
			if err != nil {
				return err
			}
			pos += used
			continue
		}
		v, used, err := img.value(pos, end)
		if err != nil {
			return err
		}
		if v.K == value.Bytes {
			v.B = b.own(v.B)
		}
		b.arena = append(b.arena, v)
		pos += used
		k++
	}
	return nil
}

// addSealed appends to b the cols cells of sealed rows [id, end), all on the
// page holding id, and returns the physical bytes read.
func (ds *diskStore) addSealed(b *rowBatch, id, end int, cols []int) (int64, error) {
	p, pm, phys, err := ds.sealedPage(id)
	if err != nil {
		return 0, err
	}
	defer ds.unpin(p)
	for ; id < end && id < pm.first+pm.nrows; id++ {
		start := len(b.arena)
		if err := p.img.appendCols(b, id-pm.first, cols); err != nil {
			return 0, corruptf(ds.path, pm.off, "row %d: %v", id, err)
		}
		b.cut(start)
	}
	return phys, nil
}

// width is the number of cells a row projected onto cols has.
func (ds *diskStore) width(cols []int) int {
	if cols == nil {
		return ds.ncols
	}
	return len(cols)
}

func (ds *diskStore) Scan(lo, hi int, cols []int) ([][]value.Value, int64, error) {
	// One snapshot of the sealed/tail boundary and of the tail rows: pages
	// sealed while the loop below runs unlocked only move rows this call
	// already holds.
	ds.mu.Lock()
	nflushed := ds.nflushed
	n := nflushed + len(ds.tail)
	if lo < 0 || hi > n || lo > hi {
		ds.mu.Unlock()
		return nil, 0, fmt.Errorf("storage: scan [%d,%d) out of range (%d rows)", lo, hi, n)
	}
	var tail [][]value.Value
	if hi > nflushed {
		tail = ds.tail[max(lo, nflushed)-nflushed : hi-nflushed]
	}
	ds.mu.Unlock()

	b := newRowBatch(hi-lo, ds.width(cols))
	var phys int64
	for id, end := lo, min(hi, nflushed); id < end; id = lo + len(b.rows) { // a page per turn
		p, err := ds.addSealed(&b, id, end, cols)
		if err != nil {
			return nil, 0, err
		}
		phys += p
	}
	for _, row := range tail {
		b.add(row, cols)
	}
	return b.rows, phys, nil
}

func (ds *diskStore) Fetch(ids []int32, cols []int) ([][]value.Value, int64, error) {
	ds.mu.Lock()
	nflushed := ds.nflushed
	tail := ds.tail
	ds.mu.Unlock()
	n := nflushed + len(tail)
	b := newRowBatch(len(ids), ds.width(cols))
	var phys int64
	for _, id32 := range ids {
		id := int(id32)
		if id < 0 || id >= n {
			return nil, 0, fmt.Errorf("storage: fetch id %d out of range (%d rows)", id, n)
		}
		if id >= nflushed {
			b.add(tail[id-nflushed], cols)
			continue
		}
		p, err := ds.addSealed(&b, id, id+1, cols)
		if err != nil {
			return nil, 0, err
		}
		phys += p
	}
	return b.rows, phys, nil
}
