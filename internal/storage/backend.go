package storage

import (
	"errors"
	"fmt"

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
// Scan and Fetch additionally report the physical bytes read from the
// medium to serve the call: a paged backend counts block-cache misses
// times the page size, while the in-memory backend reports 0 and leaves
// the engine's resident-byte approximation in charge (Table.Paged picks
// the charging rule).
type Backend interface {
	// Append stores one row at the next row id. Values are already
	// canonicalized (interning) and validated by the Table.
	Append(row []value.Value) error
	// Scan returns the rows with ids in [lo, hi) in id order, plus the
	// physical bytes read. cols names the schema positions to materialize,
	// ascending: each returned row holds exactly those cells, in that order
	// (empty: rows of no cells); nil means every column. The returned batch
	// may alias backend memory and must be treated as read-only.
	Scan(lo, hi int, cols []int) ([][]value.Value, int64, error)
	// Fetch returns the rows named by an id list, in list order, projected
	// onto cols as Scan's are, plus the physical bytes read.
	Fetch(ids []int32, cols []int) ([][]value.Value, int64, error)
	// NumRows is the stored row count.
	NumRows() int
	// Paged reports whether Scan/Fetch byte counts are real medium reads
	// (true: the engine charges them; false: the engine charges the
	// resident-byte approximation).
	Paged() bool
	// Flush persists buffered rows and the given table metadata. A no-op
	// for in-memory backends.
	Flush(meta *SegmentMeta) error
	// Close flushes and releases the backend's resources.
	Close() error
	// IO returns cumulative physical-read counters (zero for in-memory
	// backends).
	IO() IOStats
}

// rowBatch collects the rows of one Scan or Fetch call. Projected rows are
// cut from a single arena sized for the call — rows × wanted columns, one
// allocation — and capped, so appending to a row cannot reach the next.
type rowBatch struct {
	rows  [][]value.Value
	arena []value.Value
}

func newRowBatch(nrows, width int) rowBatch {
	return rowBatch{rows: make([][]value.Value, 0, nrows), arena: make([]value.Value, 0, nrows*width)}
}

// cut adds arena[start:], the cells appended since, as the next row.
func (b *rowBatch) cut(start int) {
	b.rows = append(b.rows, b.arena[start:len(b.arena):len(b.arena)])
}

// add adds a decoded row: itself when cols is nil, else a copy of its cols
// cells.
func (b *rowBatch) add(row []value.Value, cols []int) {
	if cols == nil {
		b.rows = append(b.rows, row)
		return
	}
	start := len(b.arena)
	for _, c := range cols {
		b.arena = append(b.arena, row[c])
	}
	b.cut(start)
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

// IndexSpec names one secondary index for segment metadata, so a reopened
// table rebuilds exactly the indexes it was closed with.
type IndexSpec struct {
	Col  string    `json:"col"`
	Kind IndexKind `json:"kind"`
}

// SegmentMeta is the durable table metadata a paged backend persists
// alongside the rows: the schema (with its unique key), the secondary
// indexes to rebuild on open, and the row count (a reopen that finds fewer
// rows than the metadata promises knows the segment was truncated).
type SegmentMeta struct {
	Schema  Schema      `json:"schema"`
	Indexes []IndexSpec `json:"indexes,omitempty"`
	Rows    int         `json:"rows"`
}

// ErrCorruptSegment is the sentinel every segment-integrity failure wraps:
// bad magic, version or geometry mismatch, truncated page, checksum
// mismatch, undecodable row, or a row count short of the metadata.
// Callers test with errors.Is.
var ErrCorruptSegment = errors.New("storage: corrupt segment")

// ErrClosed is returned (wrapped) by a Scan or Fetch that needs the medium
// after Close: the data is intact, the handle is gone.
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
