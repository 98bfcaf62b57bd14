// Package storage implements the catalog and heap-table layer that backs
// both the plaintext database and the untrusted server's encrypted database.
//
// A Table keeps the logical state — schema, secondary indexes, the unique
// key index, interning dictionaries, per-column statistics, byte-accurate
// size accounting — and delegates physical row storage to a Backend: the
// in-memory store (rows as Go slices, the original layout) or the paged
// disk store (append-only segment files with an LRU block cache, see
// diskstore.go). Row ids are assignment order under every backend, so the
// engine's sharded scans, streamed batches, and index posting lists behave
// identically no matter where the rows live.
//
// Size accounting feeds the cost model: every inserted value contributes
// its encoded size to per-table and per-column totals, and the engine
// reports bytes scanned per query, which the cost model converts to
// simulated disk time — this is what makes ciphertext expansion slow
// queries down the same way it does on the paper's disk-bound testbed
// (§8.1, which flushes caches and caps RAM to keep scans I/O-bound). A
// paged backend replaces that resident-byte approximation with the bytes
// of the pages each read pins: what a cold read would fetch, whatever the
// block cache holds at the time.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// ColType is the declared type of a column.
type ColType uint8

// Column types.
const (
	TInt ColType = iota
	TFloat
	TStr
	TDate
	TBytes
	TBool
)

func (t ColType) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TStr:
		return "string"
	case TDate:
		return "date"
	case TBytes:
		return "bytes"
	case TBool:
		return "bool"
	}
	return "?"
}

// Kind is the value kind a column of type t holds. Every ColType in use is
// one of the constants above (schemas are built from them, never decoded),
// so the Null returned for any other is unreached.
func (t ColType) Kind() value.Kind {
	switch t {
	case TInt:
		return value.Int
	case TFloat:
		return value.Float
	case TStr:
		return value.Str
	case TDate:
		return value.Date
	case TBytes:
		return value.Bytes
	case TBool:
		return value.Bool
	}
	return value.Null
}

// ColTypeOf is the column type that holds values of kind k, Kind's inverse;
// a column of only NULLs is TInt.
func ColTypeOf(k value.Kind) ColType {
	switch k {
	case value.Float:
		return TFloat
	case value.Str:
		return TStr
	case value.Date:
		return TDate
	case value.Bytes:
		return TBytes
	case value.Bool:
		return TBool
	}
	return TInt
}

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a table.
type Schema struct {
	Name string
	Cols []Column
	Key  []string // primary key column names (informational)
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Table is a heap table with size accounting, backed by a pluggable
// physical row store (Backend).
type Table struct {
	Schema   Schema
	ColBytes []int64 // per-column accumulated resident bytes
	// Bytes is the resident footprint: interned duplicates count at
	// internRefBytes, not their full ciphertext size. The netsim disk
	// model scans resident bytes, so interning honestly speeds scans.
	Bytes int64
	// RawBytes is what the table would occupy without dictionary
	// interning (every value at full size). RawBytes >= Bytes; the gap is
	// the interning saving.
	RawBytes int64

	be      Backend
	nrows   int
	meta    []colMeta               // per-column insert-time statistics
	indexes map[indexTag]*indexSlot // declared indexes, each built on first read
	dicts   []*internDict           // per column; nil entries for non-internable types
	key     *keyIndex               // Schema.Key uniqueness, nil if keyless
	closed  bool                    // Close ran: no more writes
}

// rowOverhead models per-row header cost (Postgres-like tuple header).
const rowOverhead = 24

// backfillChunk is the scan batch size for index backfills: large enough
// to amortize page reads, small enough that a backfill never materializes
// the whole table.
const backfillChunk = 4096

// NewTable creates an empty in-memory table with the given schema. If the
// schema declares a Key whose columns all exist, a unique key index is
// built and enforced on every Insert.
func NewTable(s Schema) *Table {
	return newTableOn(s, newMemStore())
}

// NewTableFromRows builds an in-memory table that takes ownership of rows, in
// one pass: arity is checked and sizes are accounted, but no column
// statistics, interning dictionaries or key index are maintained — the shape
// of a client temp table, which is scanned once and never planned over.
func NewTableFromRows(s Schema, rows [][]value.Value) (*Table, error) {
	t := &Table{Schema: s, ColBytes: make([]int64, len(s.Cols)), be: &memStore{rows: rows}, nrows: len(rows)}
	t.meta = make([]colMeta, len(s.Cols))
	t.dicts = make([]*internDict, len(s.Cols))
	for _, row := range rows {
		if len(row) != len(s.Cols) {
			return nil, fmt.Errorf("storage: table %s: row has %d values, schema has %d columns",
				s.Name, len(row), len(s.Cols))
		}
		for i := range row {
			t.ColBytes[i] += int64(row[i].Size())
		}
	}
	for _, n := range t.ColBytes {
		t.Bytes += n
	}
	t.Bytes += int64(len(rows)) * rowOverhead
	t.RawBytes = t.Bytes
	return t, nil
}

// newTableOn wires the logical table state over a physical backend.
func newTableOn(s Schema, be Backend) *Table {
	t := &Table{Schema: s, ColBytes: make([]int64, len(s.Cols)), be: be}
	t.meta = make([]colMeta, len(s.Cols))
	t.dicts = make([]*internDict, len(s.Cols))
	for i, c := range s.Cols {
		if c.Type == TStr || c.Type == TBytes {
			t.dicts[i] = &internDict{}
		}
	}
	if len(s.Key) > 0 {
		cols := make([]int, 0, len(s.Key))
		for _, name := range s.Key {
			ci := s.ColIndex(name)
			if ci < 0 {
				cols = nil
				break
			}
			cols = append(cols, ci)
		}
		if cols != nil {
			t.key = &keyIndex{cols: cols, seen: make(map[string]int32)}
		}
	}
	return t
}

// Insert appends a row, validating arity, enforcing the unique key,
// interning repeated string/bytes values (canonicalizing row values in
// place), accounting resident and raw size, maintaining column statistics
// and every built secondary index, and storing the row in the backend.
// After Close it fails with ErrClosed and changes nothing.
func (t *Table) Insert(row []value.Value) error {
	if t.closed {
		return fmt.Errorf("storage: table %s: insert: %w", t.Schema.Name, ErrClosed)
	}
	if len(row) != len(t.Schema.Cols) {
		return fmt.Errorf("storage: table %s: row has %d values, schema has %d columns",
			t.Schema.Name, len(row), len(t.Schema.Cols))
	}
	keyed := t.key != nil && t.key.keyOf(row)
	if keyed {
		if prev, dup := t.key.seen[string(t.key.key)]; dup {
			return fmt.Errorf("storage: table %s: duplicate key %v (rows %d and %d)",
				t.Schema.Name, t.keyVals(row), prev, t.nrows)
		}
	}
	id := int32(t.nrows)
	for i, v := range row {
		t.RawBytes += int64(v.Size())
		sz := int64(v.Size())
		if d := t.dicts[i]; d != nil && !v.IsNull() {
			row[i], sz = d.add(v)
		}
		t.ColBytes[i] += sz
		t.Bytes += sz
		t.meta[i].observe(row[i])
	}
	t.Bytes += rowOverhead
	t.RawBytes += rowOverhead
	t.nrows++
	if keyed {
		t.key.seen[string(t.key.key)] = id
	}
	for _, s := range t.indexes {
		if ix := s.ix.Load(); ix != nil {
			ix.add(row[ix.pos], id)
		}
	}
	return t.be.Append(row)
}

// keyVals extracts the key column values of a row for error messages.
func (t *Table) keyVals(row []value.Value) []value.Value {
	vals := make([]value.Value, len(t.key.cols))
	for i, ci := range t.key.cols {
		vals[i] = row[ci]
	}
	return vals
}

// ScanRows returns the rows with ids in [lo, hi) in id order, plus the
// page bytes the backend read to serve them (0 for in-memory tables).
// The batch must be treated as read-only: an in-memory table's batch is its
// own rows, a paged table's is copied out of its page buffers.
func (t *Table) ScanRows(lo, hi int) ([][]value.Value, int64, error) {
	return t.be.Scan(lo, hi, nil, nil, nil)
}

// FetchRows returns the rows named by an id list, in list order, plus the
// page bytes read (the access path's row-source shape).
func (t *Table) FetchRows(ids []int32) ([][]value.Value, int64, error) {
	return t.be.Fetch(ids, nil, nil, nil)
}

// ScanCols is ScanRows projected, filtered and, given a Scratch, borrowed
// (Backend.Scan): every returned row holds the cells at the schema
// positions cols, which must ascend (nil: every column). A paged backend
// decodes only those cells; an in-memory one copies them, so callers that
// want whole rows of an in-memory table pass nil.
func (t *Table) ScanCols(lo, hi int, cols []int, f Filter, s *Scratch) ([][]value.Value, int64, error) {
	if err := t.checkCols(cols); err != nil {
		return nil, 0, err
	}
	return t.be.Scan(lo, hi, cols, f, s)
}

// FetchCols is FetchRows projected, filtered and borrowed as ScanCols is.
func (t *Table) FetchCols(ids []int32, cols []int, f Filter, s *Scratch) ([][]value.Value, int64, error) {
	if err := t.checkCols(cols); err != nil {
		return nil, 0, err
	}
	return t.be.Fetch(ids, cols, f, s)
}

// checkCols rejects a projection that is not a strictly ascending list of
// schema positions — the order the backends' one forward walk relies on.
func (t *Table) checkCols(cols []int) error {
	prev := -1
	for _, c := range cols {
		if c <= prev || c >= len(t.Schema.Cols) {
			return fmt.Errorf("storage: table %s: projection %v is not ascending positions below %d",
				t.Schema.Name, cols, len(t.Schema.Cols))
		}
		prev = c
	}
	return nil
}

// Row returns one row by id, panicking on out-of-range ids; for tests and
// fixtures (queries go through ScanRows/FetchRows and get byte accounting).
func (t *Table) Row(id int) []value.Value {
	rows, _, err := t.be.Fetch([]int32{int32(id)}, nil, nil, nil)
	if err != nil {
		panic(err)
	}
	return rows[0]
}

// Paged reports whether the backend's Scan/Fetch byte counts are page
// bytes the engine should charge instead of the resident-byte
// approximation.
func (t *Table) Paged() bool { return t.be.Paged() }

// ReadCost is what a read of the positions [lo,hi) charges, given the
// page bytes phys the backend reported for it: phys itself on a paged
// table (every page the read pinned, cached or not), and the rows' resident share of Bytes in memory, whose charges
// over consecutive ranges add up to Bytes for the whole table. A position
// is a row id for a scan, or the count of rows reached so far for fetches.
func (t *Table) ReadCost(lo, hi int, phys int64) int64 {
	if t.Paged() {
		return phys
	}
	n := int64(t.nrows)
	return t.Bytes*int64(hi)/n - t.Bytes*int64(lo)/n
}

// ScanBytes is what a full scan of the table charges: the sealed pages'
// physical bytes on a paged backend, Bytes on the in-memory one.
func (t *Table) ScanBytes() int64 {
	if t.Paged() {
		return t.be.Size()
	}
	return t.Bytes
}

// IO returns the backend's cumulative physical-read counters.
func (t *Table) IO() IOStats { return t.be.IO() }

// ColMeta returns the insert-time statistics of column ci.
func (t *Table) ColMeta(ci int) ColMeta { return t.meta[ci].snapshot() }

// Meta returns the insert-time statistics of the named column, false when
// the table has no such column. It is the one column-statistics read the
// planner's cost model and the engine's join order share.
func (t *Table) Meta(col string) (ColMeta, bool) {
	ci := t.Schema.ColIndex(col)
	if ci < 0 {
		return ColMeta{}, false
	}
	return t.ColMeta(ci), true
}

// Flush writes buffered rows to the backend; a no-op for in-memory
// tables. After Close it fails with ErrClosed.
func (t *Table) Flush() error {
	if t.closed {
		return fmt.Errorf("storage: table %s: flush: %w", t.Schema.Name, ErrClosed)
	}
	return t.be.Flush()
}

// Close flushes and releases the backend. Closing twice is a no-op.
func (t *Table) Close() error {
	if t.closed {
		return nil
	}
	err := t.Flush()
	t.closed = true
	if cerr := t.be.Close(); err == nil {
		err = cerr
	}
	return err
}

// indexSlot is one declared index of a table: nothing until the first read
// that asks for it builds it (Table.Index).
type indexSlot struct {
	pos int                   // the column's schema position
	mu  sync.Mutex            // serializes the build
	ix  atomic.Pointer[Index] // nil until built; read without mu after
}

// DeclareIndex records that the named column carries an index of the given
// kind. Nothing is built: the first Index call for it backfills it, and
// Insert maintains it from then on. Declaring an index twice is a no-op.
// Like Insert, it must not run concurrently with reads of the table.
func (t *Table) DeclareIndex(col string, kind IndexKind) error {
	ci := t.Schema.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("storage: table %s: no column %s to index", t.Schema.Name, col)
	}
	tag := indexTag{col: col, kind: kind}
	if _, ok := t.indexes[tag]; ok {
		return nil
	}
	if t.indexes == nil {
		t.indexes = make(map[indexTag]*indexSlot)
	}
	t.indexes[tag] = &indexSlot{pos: ci}
	return nil
}

// EnsureIndex declares the index of the given kind over the named column
// and builds it now (Index).
func (t *Table) EnsureIndex(col string, kind IndexKind) (*Index, error) {
	if err := t.DeclareIndex(col, kind); err != nil {
		return nil, err
	}
	return t.Index(col, kind)
}

// Index returns the index of the given kind on the named column, building a
// declared one on its first call; nil when no such index is declared. The
// build runs once, under the index's own lock, with chunked backend scans of
// that one column; later calls take no lock. A failed build returns the
// backend's error and leaves the index unbuilt, so the next call retries.
func (t *Table) Index(col string, kind IndexKind) (*Index, error) {
	s := t.indexes[indexTag{col: col, kind: kind}]
	if s == nil {
		return nil, nil
	}
	if ix := s.ix.Load(); ix != nil {
		return ix, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ix := s.ix.Load(); ix != nil {
		return ix, nil
	}
	ix := newIndex(col, s.pos, kind)
	var slots []int32 // a hash index's key slot per row (Index.fill)
	if kind == HashIndex {
		slots = make([]int32, 0, t.nrows)
	}
	var scratch Scratch // each chunk is filed before the next is read
	for lo := 0; lo < t.nrows; lo += backfillChunk {
		hi := min(lo+backfillChunk, t.nrows)
		rows, _, err := t.be.Scan(lo, hi, []int{s.pos}, nil, &scratch)
		if err != nil {
			return nil, fmt.Errorf("storage: table %s: build %v index on %s: %w", t.Schema.Name, kind, col, err)
		}
		for k, row := range rows {
			if kind == HashIndex {
				slots = append(slots, ix.keySlot(row[0]))
			} else {
				ix.add(row[0], int32(lo+k))
			}
		}
	}
	if kind == HashIndex {
		ix.fill(slots)
	}
	s.ix.Store(ix)
	return ix, nil
}

// IndexCounts reports how many indexes the table declares and how many of
// them have been built.
func (t *Table) IndexCounts() (declared, built int) {
	for _, s := range t.indexes {
		if s.ix.Load() != nil {
			built++
		}
	}
	return len(t.indexes), built
}

// HasIndexes reports whether the table declares any secondary index; a
// table that declares none is only ever scanned.
func (t *Table) HasIndexes() bool { return len(t.indexes) > 0 }

// HasKey reports whether the table enforces a unique Schema.Key.
func (t *Table) HasKey() bool { return t.key != nil }

// dropDerived discards all derived state — secondary indexes, declared or
// built, the unique key index, and interning dictionaries — so nothing stale survives a
// catalog replacement. Rows and size accounting are untouched.
func (t *Table) dropDerived() {
	t.indexes = nil
	t.key = nil
	for i := range t.dicts {
		if t.dicts[i] != nil {
			t.dicts[i] = &internDict{disabled: true}
		}
	}
}

// MustInsert inserts or panics; for generators and fixtures.
func (t *Table) MustInsert(row []value.Value) {
	if err := t.Insert(row); err != nil {
		panic(err)
	}
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.nrows }

// AvgRowBytes returns the mean stored row size including overhead.
func (t *Table) AvgRowBytes() float64 {
	if t.nrows == 0 {
		return 0
	}
	return float64(t.Bytes) / float64(t.nrows)
}

// Catalog is a named collection of tables. Its BackendConfig decides where
// Create puts new tables' rows; tables installed with Put keep whatever
// backend they were built on.
type Catalog struct {
	tables map[string]*Table
	cfg    BackendConfig
}

// NewCatalog returns an empty catalog creating in-memory tables.
func NewCatalog() *Catalog { return NewCatalogWith(BackendConfig{}) }

// NewCatalogWith returns an empty catalog creating tables on the
// configured backend.
func NewCatalogWith(cfg BackendConfig) *Catalog {
	return &Catalog{tables: make(map[string]*Table), cfg: cfg}
}

// Create adds a new empty table on the catalog's backend; it fails if the
// name exists.
func (c *Catalog) Create(s Schema) (*Table, error) {
	if _, ok := c.tables[s.Name]; ok {
		return nil, fmt.Errorf("storage: table %s already exists", s.Name)
	}
	var t *Table
	if c.cfg.Kind == BackendDisk {
		ds, err := createDiskStore(c.cfg, s)
		if err != nil {
			return nil, err
		}
		t = newTableOn(s, ds)
	} else {
		t = NewTable(s)
	}
	c.tables[s.Name] = t
	return t, nil
}

// Put installs a table, replacing any existing one with the same name.
// The replaced table's derived state (secondary indexes, key index,
// interning dictionaries) is dropped so stale structures cannot answer
// queries through a dangling reference.
func (c *Catalog) Put(t *Table) {
	if old, ok := c.tables[t.Schema.Name]; ok && old != t {
		old.dropDerived()
	}
	c.tables[t.Schema.Name] = t
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: no such table %s", name)
	}
	return t, nil
}

// HasColumn reports whether the named table has column col, and an error
// when no such table exists: the catalog as the name resolver (ast.Catalog)
// sees it.
func (c *Catalog) HasColumn(table, col string) (bool, error) {
	t, err := c.Table(table)
	if err != nil {
		return false, err
	}
	return t.Schema.ColIndex(col) >= 0, nil
}

// Drop removes a table if present.
func (c *Catalog) Drop(name string) { delete(c.tables, name) }

// Names returns the table names in sorted order.
func (c *Catalog) Names() []string {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Flush writes every table's buffered rows to its backend.
func (c *Catalog) Flush() error {
	for _, name := range c.Names() {
		if err := c.tables[name].Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes every table, returning the first error.
func (c *Catalog) Close() error {
	var first error
	for _, name := range c.Names() {
		if err := c.tables[name].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// IO sums the backends' physical-read counters across all tables.
func (c *Catalog) IO() IOStats {
	var io IOStats
	for _, t := range c.tables {
		io.Add(t.IO())
	}
	return io
}

// IndexCounts sums the declared and the built indexes of all tables.
func (c *Catalog) IndexCounts() (declared, built int) {
	for _, t := range c.tables {
		d, b := t.IndexCounts()
		declared += d
		built += b
	}
	return declared, built
}

// TotalBytes sums resident (interned) bytes across all tables.
func (c *Catalog) TotalBytes() int64 {
	var n int64
	for _, t := range c.tables {
		n += t.Bytes
	}
	return n
}

// TotalRawBytes sums pre-interning bytes across all tables; the ratio
// TotalBytes/TotalRawBytes is the interning saving.
func (c *Catalog) TotalRawBytes() int64 {
	var n int64
	for _, t := range c.tables {
		n += t.RawBytes
	}
	return n
}
