package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
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
//	offset 0              ┌─────────────────────────────────────────────┐
//	                      │ page 0: nrows u32 │ used u32 │ crc32 u32    │
//	                      │   column directory, one entry per column:   │
//	                      │     mode u8 │ width u16 │ region len u32    │
//	                      │   column 0 region: nrows × width raw bytes  │
//	                      │   column 1 region: nrows value frames       │
//	                      │   …  one region per column, schema order    │
//	                      │                                       … pad │
//	offset pageSize       ├─────────────────────────────────────────────┤
//	                      │ page 1: …                                   │
//	                      └─────────────────────────────────────────────┘
//
// A page groups its cells by column (PAX). A column whose cells on the
// page are all non-NULL and of one fixed-width kind and width — Int, Date
// and Float 8 bytes, Bool 1, Bytes of one length from 1 to 65 535 — is a
// fixed region: mode is that value.Kind and the cells are nrows × width
// untagged bytes. Any other column (NULLs, Str, mixed kinds or lengths) is a
// tagged region: mode 0 and width 0, and its cells are value frames in the
// wire encoding (internal/wire) except Bool, which the wire flattens into
// Int — the page codec adds a local tag so every column kind round-trips.
// Every cell takes at least one payload byte in either mode. There is one
// format: segments are scratch, so nothing needs a version.
//
// Pages are fixed-size (pageSize); a single row too large for one page
// gets an oversized page of exactly header+payload bytes. Rows are buffered
// in an in-memory tail page, with each column's shape (colShape) kept up to
// date so the page's encoded size is known on every Append, and written out
// when the page fills or on Flush (the tail page is rewritten in place
// until it seals), so an encryption-time bulk load writes each page roughly
// once.
//
// Reads go through an LRU block cache of verified page images with hit/miss
// counters; a cache miss is exactly one physical page read (IO). Scan and
// Fetch report the bytes of the pages they pin, hit or miss — a Scan charges
// a page to the read that holds its first row, so consecutive scans of a
// table charge its segment exactly once, and a Fetch every page it pins.
// That is the number the engine charges in place of the in-memory
// resident-byte approximation (Paged() == true), and one that does not
// depend on what concurrent readers left in the cache.
//
// The read path is split in two. Loading a page (a miss) reads it, checks
// its checksum and verifies every region once (verifyPage) into a page
// frame the block cache recycles: a fixed region by arithmetic (its length
// is nrows × width and its width is its kind's), a tagged region by walking
// its frames, recording where each cell starts. The cache keeps that image:
// raw bytes, column regions and tagged cell offsets. Serving rows from an
// image — on a hit as on a miss — decodes only what the caller asked for:
// Scan and Fetch take the schema positions to materialize and read exactly
// those cells by index, with nothing to step over (appendCols; nil
// positions mean every column). Fetch decodes the rows it was asked for,
// not their pages, and pins a page once per run of ascending ids that fall
// on it, so its hits and misses count pages as a scan's do. So a hit is not
// free, it costs a decode as narrow as the query; and a query that reads 4
// of 24 columns never builds the other 20.
//
// A filtered read materializes late (addSealed): per pinned page it first
// evaluates the filter's page predicate, if it brings one (PageFilter,
// Pred), on the page's cells in place; then it decodes only the cells the
// rest of the filter reads into one scratch row and runs Keep row by row on
// the rows still standing; then it cuts the survivors' wanted cells into an
// arena piece sized for them. So rows a query's WHERE drops are never built.
//
// Page frames are reused: an evicted page's buffer, column regions and cell
// offsets go back to the cache's free list once no reader holds the frame,
// and the next miss reads into them (blockCache). So the rows Scan and
// Fetch return never point into a frame: their Bytes cells are copied out
// into byte chunks that are never written again, and their Str cells alias
// the decoder's string copy of the page, made once per load and never
// reused. A held cell keeps alive the bytes it projected, not the pages
// they came from. The rows are still read-only (Backend.Scan's contract):
// the cells of one batch share its arenas, and a call given a Scratch
// refills the Scratch's row slice and cell arena, so its batch is valid
// only until the next call on that Scratch.
//
// mu guards the page directory, the tail page, the block cache and its
// pins, and the counters — not I/O, verification or decoding on the read
// side. A read snapshots its page's directory entry and probes the cache
// under mu, pinning the frame it gets or takes for a miss; it reads and
// verifies the page unlocked (sealed pages are immutable), re-locks to
// insert and count it, decodes and filters unlocked again, and re-locks to
// unpin, so concurrent sessions and shard workers load and decode in
// parallel.
// Writes (Append, Flush, Close) hold mu throughout.
//
// Every integrity failure of a page read — a truncated or checksum-corrupt
// page, a malformed directory or region, an undecodable cell — returns a
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
	shapes   []colShape      // each column's shape over the tail rows
	next     []colShape      // Append's scratch: shapes with one more row
	tailLen  int             // payload bytes the tail page encodes to
	cellBuf  []byte          // Append's scratch: one cell's tagged frame
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
	colEntryLen   = 1 + 2 + 4 // a column directory entry: mode, width, region length
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
		shapes: make([]colShape, len(s.Cols)), next: make([]colShape, len(s.Cols)),
		cache: newBlockCache(cfg.cacheBytes(), cfg.pageBytes()),
	}, nil
}

// --- cell codec ---

// appendCell appends v's tagged frame: the wire encoding, or the page
// codec's Bool tag.
func appendCell(dst []byte, v value.Value) ([]byte, error) {
	if v.K == value.Bool {
		return append(dst, pageTagBool, boolByte(v)), nil
	}
	return wire.AppendValue(dst, v)
}

func boolByte(v value.Value) byte {
	if v.I != 0 {
		return 1
	}
	return 0
}

// modeWidth is the cell width a column mode implies: 0 for a tagged region
// (mode value.Null), 8 for Int, Date and Float, 1 for Bool, and -1 — any
// width from 1 to 65 535 — for Bytes. ok is false for a byte that names no
// mode.
func modeWidth(mode value.Kind) (width int, ok bool) {
	switch mode {
	case value.Null:
		return 0, true
	case value.Int, value.Date, value.Float:
		return 8, true
	case value.Bool:
		return 1, true
	case value.Bytes:
		return -1, true
	}
	return 0, false
}

// fixedWidth is v's cell width in a fixed region, or 0 when v cannot sit in
// one: a NULL, a Str, an empty or over-long Bytes.
func fixedWidth(v value.Value) int {
	if v.K == value.Bytes {
		if len(v.B) > math.MaxUint16 {
			return 0
		}
		return len(v.B)
	}
	if w, ok := modeWidth(v.K); ok && w > 0 {
		return w
	}
	return 0
}

// colShape is what one column of the tail page encodes to so far: a fixed
// region while every cell is of one fixed-width kind and width, else a
// tagged one.
type colShape struct {
	mode   value.Kind // every cell's kind while fixed; value.Null once tagged
	width  int        // fixed cell width; 0 once tagged
	tagged int        // Σ tagged frame bytes of the cells
}

// with returns the shape after v is added as cell n (counted from 0) of the
// column; frameLen is v's tagged frame length.
func (s colShape) with(v value.Value, n, frameLen int) colShape {
	if n == 0 {
		s = colShape{mode: v.K, width: fixedWidth(v)}
	}
	s.tagged += frameLen
	if s.width == 0 || v.K != s.mode || fixedWidth(v) != s.width {
		s.mode, s.width = value.Null, 0
	}
	return s
}

// size is the region length of a column of nrows cells in this shape.
func (s colShape) size(nrows int) int {
	if s.mode == value.Null {
		return s.tagged
	}
	return nrows * s.width
}

// encodePage appends the payload of a page holding rows, whose columns
// have the given shapes: the column directory, then each column's region.
func encodePage(dst []byte, rows [][]value.Value, shapes []colShape) []byte {
	for _, s := range shapes {
		dst = append(dst, byte(s.mode))
		dst = binary.BigEndian.AppendUint16(dst, uint16(s.width))
		dst = binary.BigEndian.AppendUint32(dst, uint32(s.size(len(rows))))
	}
	for c, s := range shapes {
		for _, row := range rows {
			switch v := row[c]; s.mode {
			case value.Null:
				dst, _ = appendCell(dst, v) // Append framed it once already
			case value.Int, value.Date:
				dst = binary.BigEndian.AppendUint64(dst, uint64(v.I))
			case value.Float:
				dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.F))
			case value.Bool:
				dst = append(dst, boolByte(v))
			case value.Bytes:
				dst = append(dst, v.B...)
			}
		}
	}
	return dst
}

// --- writes ---

func (ds *diskStore) Append(row []value.Value) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	size, err := ds.grow(row)
	if err != nil {
		return err
	}
	// A full tail page seals before this row starts a fresh one; a row that
	// alone overflows a page seals immediately as an oversized page.
	if len(ds.tail) > 0 && pageHeaderLen+size > ds.pageSize {
		if err := ds.sealTail(); err != nil {
			return err
		}
		size, _ = ds.grow(row)
	}
	ds.shapes, ds.next = ds.next, ds.shapes
	ds.tail = append(ds.tail, row)
	ds.tailLen = size
	if pageHeaderLen+size >= ds.pageSize {
		return ds.sealTail()
	}
	return nil
}

// grow sets ds.next to the column shapes of the tail page with row added
// and returns that page's payload size.
func (ds *diskStore) grow(row []value.Value) (int, error) {
	size := ds.ncols * colEntryLen
	for c, v := range row {
		var err error
		if ds.cellBuf, err = appendCell(ds.cellBuf[:0], v); err != nil {
			return 0, err
		}
		ds.next[c] = ds.shapes[c].with(v, len(ds.tail), len(ds.cellBuf))
		size += ds.next[c].size(len(ds.tail) + 1)
	}
	return size, nil
}

// writeTailPage writes the current tail rows as a page at tailOff and
// returns its physical length. Padding zero-fills to the page size.
func (ds *diskStore) writeTailPage() (int64, error) {
	physLen := max(ds.pageSize, pageHeaderLen+ds.tailLen)
	page := encodePage(make([]byte, pageHeaderLen, physLen), ds.tail, ds.shapes)
	payload := page[pageHeaderLen:]
	if len(payload) != ds.tailLen {
		return 0, fmt.Errorf("storage: page encodes to %d bytes, sized at %d", len(payload), ds.tailLen)
	}
	binary.BigEndian.PutUint32(page[0:4], uint32(len(ds.tail)))
	binary.BigEndian.PutUint32(page[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint32(page[8:12], crc32.ChecksumIEEE(payload))
	if _, err := ds.f.WriteAt(page[:physLen], ds.tailOff); err != nil {
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
	ds.tailLen = 0
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

// Size is the sealed pages' bytes; the tail page is served from memory.
func (ds *diskStore) Size() int64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.tailOff
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
// while the frame is resident or pinned, plus where each column's region and
// each tagged cell start. Nothing is decoded ahead of a read: Scan and Fetch
// cut the cells a query wants out of the image on every call, hit or miss
// (appendCols).
//
// dec is shared by every reader of the image. That is safe because
// verification walked every tagged frame with it: a page with Str cells
// already has its string copy, and the decoder writes nothing further.
type pageImage struct {
	payload []byte       // the checksummed directory and regions
	dec     wire.Decoder // over payload
	cols    []colRegion  // per schema column
	offs    []uint32     // payload offset of each tagged cell, column by column
}

// colRegion locates one column's cells in a page payload.
type colRegion struct {
	mode     value.Kind // every cell's kind in a fixed region; value.Null: tagged
	width    int        // fixed cell width
	start    int        // the region is payload[start:end]
	end      int
	firstOff int // tagged: index in pageImage.offs of row 0's cell
}

// sealedPage returns the pinned frame holding the verified image of the
// sealed page that holds row id, and that page's directory entry, via the
// block cache, counting a miss as a page read. The caller unpins the frame
// once it has cut its cells. The load between the two locked sections
// runs unlocked (see diskStore): two callers that miss on the same page each
// read it — both are real reads and both are counted. A failed load
// releases the frame it took.
func (ds *diskStore) sealedPage(id int) (*cachedPage, pageMeta, error) {
	ds.mu.Lock()
	pi := ds.pageAt(id)
	pm := ds.dir[pi]
	if p, ok := ds.cache.get(pi); ok {
		ds.mu.Unlock()
		return p, pm, nil
	}
	fr := ds.cache.frame(pm.physLen)
	f := ds.f // Close nils the field; the load must not read it unlocked
	ds.mu.Unlock()
	img, err := loadPage(f, fr.raw, fr.img, ds.path, pm, ds.ncols)
	fr.img = img
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err != nil {
		ds.cache.release(fr)
		return nil, pm, err
	}
	p := ds.cache.put(pi, fr, pm.physLen)
	ds.io.PageReads++
	ds.io.BytesRead += pm.physLen
	return p, pm, nil
}

// unpin releases a frame sealedPage returned.
func (ds *diskStore) unpin(p *cachedPage) {
	ds.mu.Lock()
	ds.cache.release(p)
	ds.mu.Unlock()
}

// loadPage reads the page pm locates into raw (len(raw) == pm.physLen) and
// verifies it, reusing reuse's region and offset slices. It touches no
// diskStore state, so callers run it without ds.mu.
func loadPage(f *os.File, raw []byte, reuse pageImage, path string, pm pageMeta, ncols int) (pageImage, error) {
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
	return verifyPage(raw, reuse, path, pm, ncols)
}

// verifyPage checks a raw page against its directory entry and checksum,
// then checks its column directory and every region once: each region lies
// inside the payload and together they fill it; a fixed region is nrows
// cells of its kind's width; a tagged region is exactly nrows frames, each
// inside the region. What it returns can therefore be cut by position
// without further checks failing. The column regions and cell offsets go
// into reuse's slices when they have room (a recycled frame's; the zero
// pageImage allocates). The image aliases raw, which must not be written
// again while the image is in use.
func verifyPage(raw []byte, reuse pageImage, path string, pm pageMeta, ncols int) (pageImage, error) {
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
	at := func(pos int) int64 { return pm.off + int64(pageHeaderLen+pos) }
	pos := ncols * colEntryLen
	if pos > used {
		return pageImage{}, corruptf(path, pm.off, "column directory (%d bytes) past end of page", pos)
	}

	// The directory, by arithmetic. A tagged frame is at least one byte, so
	// the region lengths bound the offset slice whatever the header claims.
	img := pageImage{payload: payload, dec: wire.NewDecoder(payload), cols: reuse.cols[:0], offs: reuse.offs[:0]}
	if cap(img.cols) < ncols {
		img.cols = make([]colRegion, 0, ncols)
	}
	ntagged := 0
	for c := 0; c < ncols; c++ {
		e := payload[c*colEntryLen : (c+1)*colEntryLen]
		col := colRegion{mode: value.Kind(e[0]), width: int(binary.BigEndian.Uint16(e[1:3])), start: pos}
		n := int(binary.BigEndian.Uint32(e[3:7]))
		want, ok := modeWidth(col.mode)
		switch {
		case !ok:
			return pageImage{}, corruptf(path, at(c*colEntryLen), "column %d: unknown mode %d", c, e[0])
		case want >= 0 && col.width != want || want < 0 && col.width == 0:
			return pageImage{}, corruptf(path, at(c*colEntryLen), "column %d: width %d for mode %v", c, col.width, col.mode)
		case n > used-pos:
			return pageImage{}, corruptf(path, at(c*colEntryLen), "column %d: region (%d bytes) past end of page", c, n)
		case col.mode != value.Null && n != nrows*col.width:
			return pageImage{}, corruptf(path, at(pos), "column %d: fixed region of %d bytes, want %d rows × %d", c, n, nrows, col.width)
		case col.mode == value.Null:
			ntagged += min(nrows, n)
		}
		col.end = pos + n
		pos = col.end
		img.cols = append(img.cols, col)
	}
	if pos != used {
		return pageImage{}, corruptf(path, pm.off, "page has %d trailing payload bytes", used-pos)
	}

	// The tagged regions, one walk each.
	if cap(img.offs) < ntagged {
		img.offs = make([]uint32, 0, ntagged)
	}
	for c := range img.cols {
		col := &img.cols[c]
		if col.mode != value.Null {
			continue
		}
		col.firstOff = len(img.offs)
		k := 0
		for pos := col.start; pos < col.end; k++ {
			if k == nrows {
				return pageImage{}, corruptf(path, at(pos), "column %d: region holds more than %d cells", c, nrows)
			}
			n, err := img.skip(pos, col.end)
			if err != nil {
				return pageImage{}, corruptf(path, at(pos), "column %d row %d: %v", c, pm.first+k, err)
			}
			img.offs = append(img.offs, uint32(pos))
			pos += n
		}
		if k != nrows {
			return pageImage{}, corruptf(path, at(col.start), "column %d: region holds %d cells, page has %d rows", c, k, nrows)
		}
	}
	return img, nil
}

// skip validates the tagged frame at payload[pos:end) — the page codec's
// Bool tag or a wire frame — and returns its length.
func (img *pageImage) skip(pos, end int) (int, error) {
	if img.payload[pos] == pageTagBool {
		if pos+2 > end {
			return 0, fmt.Errorf("truncated bool")
		}
		return 2, nil
	}
	return img.dec.Skip(pos, end)
}

// cell decodes column c of row r: a fixed cell by arithmetic, a tagged one
// from the offset verification recorded. A Bytes cell aliases the frame,
// capacity-capped; callers that keep it copy it out.
func (img *pageImage) cell(c, r int) (value.Value, error) {
	col := &img.cols[c]
	at := col.start + r*col.width
	switch col.mode {
	case value.Int:
		return value.NewInt(int64(binary.BigEndian.Uint64(img.payload[at:]))), nil
	case value.Date:
		return value.NewDate(int64(binary.BigEndian.Uint64(img.payload[at:]))), nil
	case value.Float:
		return value.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(img.payload[at:]))), nil
	case value.Bool:
		return value.NewBool(img.payload[at] != 0), nil
	case value.Bytes:
		return value.NewBytes(img.payload[at : at+col.width : at+col.width]), nil
	}
	pos := int(img.offs[col.firstOff+r])
	if img.payload[pos] == pageTagBool {
		return value.NewBool(img.payload[pos+1] != 0), nil
	}
	v, _, err := img.dec.Value(pos, col.end)
	return v, err
}

// appendCols appends to b's arena the cells of the image's row r at the
// ascending schema positions cols (nil: every cell), each read by index and
// each Bytes cell copied into b's byte arena, so none points into the frame.
func (img *pageImage) appendCols(b *rowBatch, r int, cols []int) error {
	n := len(cols)
	if cols == nil {
		n = len(img.cols)
	}
	for k := 0; k < n; k++ {
		v, err := img.cell(at(cols, k), r)
		if err != nil {
			return err
		}
		if v.K == value.Bytes {
			v.B = b.own(v.B)
		}
		b.arena = append(b.arena, v)
	}
	return nil
}

// addSealed pins the sealed page holding row id and appends to b the cols
// cells of the rows pick selects on it that f keeps (nil: all), returning the
// page's directory entry. pick gets that entry and returns either a
// page-relative range [lo, hi) — a Scan's — or, when run is non-nil, a run
// of ascending row ids on the page, repeats included — a Fetch's. So a page
// is pinned, and counted as a hit or a miss, once per run.
//
// A filter that brings a page predicate (PageFilter) has it evaluated on
// the page's cells in place first (pageEval); only the rows it is TRUE on
// have their residual cells decoded, into one scratch row, for the rest of
// the filter. That probe aliases the frame, so it is cleared before the
// unpin.
func (ds *diskStore) addSealed(b *rowBatch, id int, cols []int, f Filter, pick func(pm pageMeta) (lo, hi int, run []int32)) (pageMeta, error) {
	p, pm, err := ds.sealedPage(id)
	if err != nil {
		return pm, err
	}
	defer ds.unpin(p)
	lo, hi, run := pick(pm)
	sel := pageSel{lo: lo, n: hi - lo, run: run, first: pm.first}
	if run != nil {
		sel.n = len(run)
	}
	if f != nil {
		if err := ds.filterPage(b, &p.img, pm, cols, f, sel); err != nil {
			return pm, err
		}
		b.room(len(b.kept) * ds.width(cols))
		sel = pageSel{n: len(b.kept), kept: b.kept}
	}
	for k := 0; k < sel.n; k++ {
		r := sel.row(k)
		start := len(b.arena)
		if err := p.img.appendCols(b, r, cols); err != nil {
			return pm, corruptf(ds.path, pm.off, "row %d: %v", pm.first+r, err)
		}
		b.cut(start)
	}
	return pm, nil
}

// pageSel is the rows a read selects on one page: n of them, page-relative,
// the k-th being kept[k] when kept is set, else a run's run[k] less the
// page's first row id when run is set, else lo+k.
type pageSel struct {
	lo, n int
	run   []int32
	first int
	kept  []int
}

func (s *pageSel) row(k int) int {
	switch {
	case s.kept != nil:
		return s.kept[k]
	case s.run != nil:
		return int(s.run[k]) - s.first
	}
	return s.lo + k
}

// filterPage sets b.kept to the rows of sel on the pinned image img of page
// pm that f keeps.
func (ds *diskStore) filterPage(b *rowBatch, img *pageImage, pm pageMeta, cols []int, f Filter, sel pageSel) error {
	b.kept = b.kept[:0]
	if pf, ok := f.(PageFilter); ok {
		if pred, rest := pf.Page(); pred != nil {
			e := pageEval{img: img, cols: cols, sel: &sel, masks: &b.masks}
			mask := e.mask(sel.n)
			for k := range mask {
				mask[k] = true
			}
			if err := e.match(pred, mask); err != nil {
				return corruptf(ds.path, pm.off, "%v", err)
			}
			for k, ok := range mask {
				if ok {
					b.kept = append(b.kept, sel.row(k))
				}
			}
			if f = rest; f == nil {
				return nil
			}
			sel = pageSel{n: len(b.kept), kept: b.kept}
		}
	}
	w := ds.width(cols)
	if len(b.probe) < w { // a Scratch's may have served a narrower read
		b.probe = make([]value.Value, w)
	}
	probe := b.probe[:w]
	defer clear(probe)
	n := 0
	for k := 0; k < sel.n; k++ {
		r := sel.row(k)
		for _, c := range f.Cols() {
			var err error
			if probe[c], err = img.cell(at(cols, c), r); err != nil {
				return corruptf(ds.path, pm.off, "row %d: %v", pm.first+r, err)
			}
		}
		ok, err := f.Keep(probe)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if sel.kept != nil { // narrowing the predicate's survivors in place
			b.kept[n] = r
			n++
		} else {
			b.kept = append(b.kept, r)
		}
	}
	if sel.kept != nil {
		b.kept = b.kept[:n]
	}
	return nil
}

// at is the schema position of cell k of a row projected onto cols.
func at(cols []int, k int) int {
	if cols == nil {
		return k
	}
	return cols[k]
}

// width is the number of cells a row projected onto cols has.
func (ds *diskStore) width(cols []int) int {
	if cols == nil {
		return ds.ncols
	}
	return len(cols)
}

func (ds *diskStore) Scan(lo, hi int, cols []int, f Filter, s *Scratch) ([][]value.Value, int64, error) {
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

	var own rowBatch
	b := s.batch(&own, hi-lo, ds.width(cols), f)
	var phys int64
	for id, end := lo, min(hi, nflushed); id < end; { // a page per turn
		from := id
		pm, err := ds.addSealed(b, id, cols, f, func(pm pageMeta) (int, int, []int32) {
			id = min(end, pm.first+pm.nrows)
			return from - pm.first, id - pm.first, nil
		})
		if err != nil {
			return nil, 0, err
		}
		if from == pm.first { // a page is charged to the read holding its first row
			phys += pm.physLen
		}
	}
	for _, row := range tail {
		if err := b.add(row, cols, f); err != nil {
			return nil, 0, err
		}
	}
	return b.rows, phys, nil
}

func (ds *diskStore) Fetch(ids []int32, cols []int, f Filter, s *Scratch) ([][]value.Value, int64, error) {
	ds.mu.Lock()
	nflushed := ds.nflushed
	tail := ds.tail
	ds.mu.Unlock()
	n := nflushed + len(tail)
	var own rowBatch
	b := s.batch(&own, len(ids), ds.width(cols), nil) // index-picked ids: mostly survivors
	var phys int64
	for i := 0; i < len(ids); { // a tail row or a page's run of ids per turn
		id := int(ids[i])
		if id < 0 || id >= n {
			return nil, 0, fmt.Errorf("storage: fetch id %d out of range (%d rows)", id, n)
		}
		if id >= nflushed {
			if err := b.add(tail[id-nflushed], cols, f); err != nil {
				return nil, 0, err
			}
			i++
			continue
		}
		pm, err := ds.addSealed(b, id, cols, f, func(pm pageMeta) (int, int, []int32) {
			start := i
			for end := pm.first + pm.nrows; i < len(ids) && int(ids[i]) >= id && int(ids[i]) < end; i++ {
				id = int(ids[i])
			}
			return 0, 0, ids[start:i]
		})
		if err != nil {
			return nil, 0, err
		}
		phys += pm.physLen // a fetch is charged every page it pins
	}
	return b.rows, phys, nil
}
