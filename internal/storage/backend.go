package storage

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/value"
)

// Backend is the physical row store behind a Table. The Table keeps every
// derived structure — secondary indexes, the unique-key index, interning
// dictionaries, per-column metadata, byte accounting — and delegates only
// raw row storage: ordered append, batch scans by row-id range, and point
// fetches by id list (the access path's shape). Row ids are assignment
// order (0-based), identical across backends, so everything layered above
// (sharded scans, streamed batches, index posting lists, the differential
// grid) is byte-identical no matter which backend holds the rows.
//
// Scan and Fetch additionally report the bytes of the pages they read: a
// paged backend counts the pages a call pins, served from the block cache
// or from the medium — a Scan a page only when the call holds its first
// row, so a page that two calls share is counted once, and a Fetch every
// page it pins — so the count is a function of the call alone, never of
// what another reader left cached (IO keeps the physical misses). The
// in-memory backend reports 0 and leaves the engine's resident-byte
// approximation in charge (Table.Paged picks the charging rule).
//
// Scan and Fetch apply a Filter as they read, calling Keep on the calling
// goroutine with no backend lock held (the predicate's subqueries may scan
// the same table). The in-memory backend passes its own rows; a paged one a
// scratch row holding only the cells Cols names, whose Bytes alias a pinned
// page frame and are valid only during the call.
//
// Scan and Fetch fill a batch of their own when s is nil. Given a Scratch, a
// paged backend refills it instead, and the batch is borrowed: it is valid
// until the next call on that Scratch, which clears the cells it handed out
// before reusing them. The in-memory backend ignores s: its rows are
// resident and its batches are its own rows.
type Backend interface {
	// Append stores one row at the next row id. Values are already
	// canonicalized (interning) and validated by the Table.
	Append(row []value.Value) error
	// Scan returns the rows with ids in [lo, hi) in id order, plus the
	// page bytes read. cols names the schema positions to materialize,
	// ascending: each returned row holds exactly those cells, in that order
	// (empty: rows of no cells); nil means every column. Only the rows f
	// keeps are returned; a nil f keeps every row. The returned batch
	// must be treated as read-only: the in-memory backend hands out its own
	// rows, and a paged backend's cells share arenas owned by the batch or
	// by s (never its page buffers, which it reuses).
	Scan(lo, hi int, cols []int, f Filter, s *Scratch) ([][]value.Value, int64, error)
	// Fetch returns the rows named by an id list that f keeps, in list
	// order, projected onto cols and read into s as Scan's are, plus the
	// page bytes read.
	Fetch(ids []int32, cols []int, f Filter, s *Scratch) ([][]value.Value, int64, error)
	// NumRows is the stored row count.
	NumRows() int
	// Size is the physical bytes a cold full Scan reads: 0 for in-memory
	// backends.
	Size() int64
	// Paged reports whether Scan/Fetch byte counts are page bytes (true:
	// the engine charges them; false: the engine charges the resident-byte
	// approximation).
	Paged() bool
	// Flush writes buffered rows to the medium. A no-op for in-memory
	// backends.
	Flush() error
	// Close releases the backend's resources (Table.Close flushes first).
	Close() error
	// IO returns cumulative physical-read counters (zero for in-memory
	// backends).
	IO() IOStats
}

// Filter is a row predicate a scan applies as it reads (Backend): Keep
// reports whether the scan returns a row, and reads only its cells at the
// positions Cols lists (a paged backend leaves the others zero).
type Filter interface {
	Cols() []int
	Keep(row []value.Value) (bool, error)
}

// PageFilter is a Filter a paged backend may split on a sealed page: Page
// returns a page predicate, evaluated on the page's cells in place (Pred),
// and the rest of the filter, which the backend applies — reading only the
// cells its Cols lists — to the rows the predicate is TRUE on; a nil rest
// keeps them all. A nil predicate leaves the whole Filter to Keep. Keep
// stays the whole filter: the in-memory backend and a paged backend's
// unsealed tail rows call it as before.
type PageFilter interface {
	Filter
	Page() (*Pred, Filter)
}

// rowBatch collects the rows of one Scan or Fetch call. Projected rows are
// cut from an arena — sized rows × wanted columns up front, or per page for
// that page's survivors when filtered — and capped, so appending to a row
// cannot reach the next. Bytes cells a paged backend reads are copied into
// bytes, a chunked arena (own) that is only ever appended to, so a held
// cell keeps alive the bytes it returned and nothing of the pages they came
// from.
type rowBatch struct {
	rows  [][]value.Value
	arena []value.Value
	bytes []byte
	probe []value.Value // a filtered paged call's scratch row for Keep
	kept  []int         // a filtered paged call's survivors on one page
	masks [][]bool      // a page predicate's working masks (pageEval)

	// A Scratch's batch is refilled call after call: its arena grows
	// geometrically, and the pieces a call outgrew (spent) are cleared with
	// the arena by the next call.
	reused bool
	spent  [][]value.Value
}

// Scratch is the reusable memory of a paged backend's Scan and Fetch (see
// Backend): the batch's row slice, its cell arena and the filter's scratch
// row, refilled by every call. A call first clears the cells the previous
// one handed out, so a reader that kept a row past the next call reads
// NULLs, not another row. Bytes cells still go into byte chunks that are
// never written again, so a Value copied out of a batch stays valid. The
// zero Scratch is ready to use; it serves one call at a time.
type Scratch struct{ b rowBatch }

// bytesChunk is the byte arena's allocation unit: a cell larger than what
// is left of the current chunk starts a new one of at least this size.
const bytesChunk = 4096

// newRowBatch sizes a batch for nrows rows of width cells unless f may drop them.
func newRowBatch(nrows, width int, f Filter) rowBatch {
	if f != nil {
		return rowBatch{}
	}
	return rowBatch{rows: make([][]value.Value, 0, nrows), arena: make([]value.Value, 0, nrows*width)}
}

// batch returns the batch a paged call fills: own, as newRowBatch sizes it,
// when s is nil, else s's, emptied for refilling.
func (s *Scratch) batch(own *rowBatch, nrows, width int, f Filter) *rowBatch {
	if s == nil {
		*own = newRowBatch(nrows, width, f)
		return own
	}
	b := &s.b
	b.reused = true
	clear(b.arena)
	b.arena = b.arena[:0]
	for _, a := range b.spent {
		clear(a)
	}
	clear(b.spent)
	b.spent = b.spent[:0]
	b.rows = slices.Grow(b.rows[:0], nrows)
	if f == nil {
		b.room(nrows * width)
	}
	return b
}

// room makes space for n more cells in the arena. A batch of its own takes
// a new piece of exactly n cells; a Scratch's doubles, keeping the piece it
// outgrew, which rows cut so far still point into, for the next call to
// clear.
func (b *rowBatch) room(n int) {
	if cap(b.arena)-len(b.arena) >= n {
		return
	}
	if !b.reused {
		b.arena = make([]value.Value, 0, n)
		return
	}
	if len(b.arena) > 0 {
		b.spent = append(b.spent, b.arena)
	}
	b.arena = make([]value.Value, 0, max(n, 2*cap(b.arena)))
}

// cut adds arena[start:], the cells appended since, as the next row.
func (b *rowBatch) cut(start int) {
	b.rows = append(b.rows, b.arena[start:len(b.arena):len(b.arena)])
}

// own copies p into the byte arena and returns the copy, capacity-limited
// so an append cannot reach the next cell.
func (b *rowBatch) own(p []byte) []byte {
	if b.bytes == nil || len(p) > cap(b.bytes)-len(b.bytes) {
		b.bytes = make([]byte, 0, max(bytesChunk, len(p)))
	}
	start := len(b.bytes)
	b.bytes = append(b.bytes, p...)
	return b.bytes[start:len(b.bytes):len(b.bytes)]
}

// add adds a decoded row — itself when cols is nil, else a copy of its cols
// cells — and takes it back out unless f (nil: every row) keeps it as added.
func (b *rowBatch) add(row []value.Value, cols []int, f Filter) error {
	if b.reused && cols != nil {
		b.room(len(cols))
	}
	start := len(b.arena)
	if cols == nil {
		b.rows = append(b.rows, row)
	} else {
		for _, c := range cols {
			b.arena = append(b.arena, row[c])
		}
		b.cut(start)
	}
	if f == nil {
		return nil
	}
	ok, err := f.Keep(b.rows[len(b.rows)-1])
	if !ok {
		b.rows, b.arena = b.rows[:len(b.rows)-1], b.arena[:start]
	}
	return err
}

// BackendKind selects a Table's physical row store.
type BackendKind uint8

// Backend kinds.
const (
	// BackendMem holds rows as Go slices (the original store).
	BackendMem BackendKind = iota
	// BackendDisk holds rows in an append-only paged segment file with an
	// LRU block cache (diskstore.go).
	BackendDisk
)

func (k BackendKind) String() string {
	if k == BackendDisk {
		return "disk"
	}
	return "mem"
}

// ParseBackendKind maps a CLI flag value to a BackendKind.
func ParseBackendKind(s string) (BackendKind, error) {
	switch s {
	case "", "mem", "memory":
		return BackendMem, nil
	case "disk":
		return BackendDisk, nil
	}
	return BackendMem, fmt.Errorf("storage: unknown backend %q (want mem or disk)", s)
}

// Default disk-backend geometry.
const (
	// DefaultPageBytes is the segment page size: large enough that row
	// framing overhead is noise, small enough that a cache of a few
	// hundred pages tracks the working set.
	DefaultPageBytes = 8192
	// DefaultCacheBytes is the block-cache capacity (128 pages at the
	// default page size).
	DefaultCacheBytes = 1 << 20
)

// BackendConfig selects and tunes the backend a Catalog creates tables on.
// The zero value is the in-memory store.
type BackendConfig struct {
	Kind BackendKind
	// Dir is where BackendDisk places its one segment file per table.
	Dir string
	// PageBytes is the segment page size (0 = DefaultPageBytes).
	PageBytes int
	// CacheBytes is the block-cache capacity in bytes (0 = DefaultCacheBytes):
	// the page images one table keeps resident.
	CacheBytes int64
}

func (c BackendConfig) pageBytes() int {
	if c.PageBytes <= 0 {
		return DefaultPageBytes
	}
	return c.PageBytes
}

func (c BackendConfig) cacheBytes() int64 {
	if c.CacheBytes <= 0 {
		return DefaultCacheBytes
	}
	return c.CacheBytes
}

// IOStats counts a backend's physical reads. PageReads == CacheMisses
// (every miss is exactly one page read); both are kept so callers can
// report a hit rate and a read count without inferring one from the other.
type IOStats struct {
	PageReads   int64 // pages read from the medium
	CacheHits   int64 // page lookups served by the block cache
	CacheMisses int64 // page lookups that went to the medium
	BytesRead   int64 // physical bytes read from the medium
}

// Add accumulates o into s.
func (s *IOStats) Add(o IOStats) {
	s.PageReads += o.PageReads
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.BytesRead += o.BytesRead
}

// HitRate is the block-cache hit fraction (1 when no lookups happened).
func (s IOStats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 1
	}
	return float64(s.CacheHits) / float64(total)
}

// ErrCorruptSegment is the sentinel every segment-integrity failure of a
// page read wraps: truncated page, checksum mismatch, undecodable row, or a
// row of the wrong arity. Callers test with errors.Is.
var ErrCorruptSegment = errors.New("storage: corrupt segment")

// ErrClosed is returned (wrapped) by a Scan or Fetch that needs the medium
// after Close, and by a Table's Insert or Flush after its Close: the data
// is intact, the handle is gone.
var ErrClosed = errors.New("storage: backend closed")

// SegmentError is the typed error for a damaged segment file. It wraps
// ErrCorruptSegment and records where and why the segment failed.
type SegmentError struct {
	Path   string // segment file path
	Offset int64  // byte offset of the failure (-1 when not positional)
	Reason string
}

func (e *SegmentError) Error() string {
	if e.Offset >= 0 {
		return fmt.Sprintf("storage: segment %s: offset %d: %s", e.Path, e.Offset, e.Reason)
	}
	return fmt.Sprintf("storage: segment %s: %s", e.Path, e.Reason)
}

// Unwrap makes errors.Is(err, ErrCorruptSegment) hold.
func (e *SegmentError) Unwrap() error { return ErrCorruptSegment }

func corruptf(path string, off int64, format string, args ...any) error {
	return &SegmentError{Path: path, Offset: off, Reason: fmt.Sprintf(format, args...)}
}
