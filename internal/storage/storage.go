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
// paged backend replaces that resident-byte approximation with its real
// physical page reads.
package storage

import (
	"fmt"
	"sort"

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
	meta    []colMeta // per-column insert-time statistics
	indexes map[indexTag]*Index
	dicts   []*internDict // per column; nil entries for non-internable types
	key     *keyIndex     // Schema.Key uniqueness, nil if keyless
}

// rowOverhead models per-row header cost (Postgres-like tuple header).
const rowOverhead = 24

// backfillChunk is the scan batch size for index backfills and
// rebuild-on-open: large enough to amortize page reads, small enough that
// a backfill never materializes the whole table.
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

// OpenTable reopens a disk-backed table from its segment file, rebuilding
// all derived state — interning accounting, column statistics, the unique
// key index, and every secondary index named in the segment metadata — by
// replaying the stored rows in id order (the replay is deterministic, so
// the rebuilt accounting equals the insert-time accounting). Any damage —
// truncation, checksum mismatch, or a duplicate key that insert-time
// enforcement would have rejected — fails with an error wrapping
// ErrCorruptSegment.
func OpenTable(path string, cfg BackendConfig) (*Table, error) {
	ds, meta, err := openDiskStore(path, cfg)
	if err != nil {
		return nil, err
	}
	t := newTableOn(meta.Schema, ds)
	nrows := ds.NumRows()
	for lo := 0; lo < nrows; lo += backfillChunk {
		hi := lo + backfillChunk
		if hi > nrows {
			hi = nrows
		}
		rows, _, err := ds.Scan(lo, hi, nil)
		if err != nil {
			ds.Close()
			return nil, err
		}
		for k, row := range rows {
			if err := t.accountRow(row, false); err != nil {
				ds.Close()
				return nil, corruptf(path, -1, "row %d: %v", lo+k, err)
			}
		}
	}
	for _, spec := range meta.Indexes {
		if _, err := t.EnsureIndex(spec.Col, spec.Kind); err != nil {
			ds.Close()
			return nil, err
		}
	}
	return t, nil
}

// Insert appends a row, validating arity, enforcing the unique key,
// interning repeated string/bytes values, accounting resident and raw
// size, maintaining column statistics and every secondary index, and
// storing the row in the backend.
func (t *Table) Insert(row []value.Value) error {
	if err := t.accountRow(row, true); err != nil {
		return err
	}
	return t.be.Append(row)
}

// accountRow runs the full derived-state maintenance for the row taking id
// t.nrows: arity and key checks, interning (canonicalizing row values in
// place when canon is true), size accounting, column statistics, and index
// maintenance. Insert follows it with a backend append; rebuild-on-open
// replays it over rows the backend already holds.
func (t *Table) accountRow(row []value.Value, canon bool) error {
	if len(row) != len(t.Schema.Cols) {
		return fmt.Errorf("storage: table %s: row has %d values, schema has %d columns",
			t.Schema.Name, len(row), len(t.Schema.Cols))
	}
	var key string
	if t.key != nil {
		k, ok := t.key.keyOf(row)
		if ok {
			if prev, dup := t.key.seen[k]; dup {
				return fmt.Errorf("storage: table %s: duplicate key %v (rows %d and %d)",
					t.Schema.Name, t.keyVals(row), prev, t.nrows)
			}
			key = k
		}
	}
	id := int32(t.nrows)
	for i, v := range row {
		t.RawBytes += int64(v.Size())
		sz := int64(v.Size())
		if d := t.dicts[i]; d != nil && !v.IsNull() {
			cv, csz := d.add(v)
			sz = csz
			if canon {
				row[i] = cv
			}
		}
		t.ColBytes[i] += sz
		t.Bytes += sz
		t.meta[i].observe(row[i])
	}
	t.Bytes += rowOverhead
	t.RawBytes += rowOverhead
	t.nrows++
	if t.key != nil && key != "" {
		t.key.seen[key] = id
	}
	for tag, ix := range t.indexes {
		ix.add(row[t.Schema.ColIndex(tag.col)], id)
	}
	return nil
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
// physical bytes the backend read to serve them (0 for in-memory tables).
// The batch may alias backend memory and must be treated as read-only.
func (t *Table) ScanRows(lo, hi int) ([][]value.Value, int64, error) {
	return t.be.Scan(lo, hi, nil)
}

// FetchRows returns the rows named by an id list, in list order, plus the
// physical bytes read (the access path's row-source shape).
func (t *Table) FetchRows(ids []int32) ([][]value.Value, int64, error) {
	return t.be.Fetch(ids, nil)
}

// ScanCols is ScanRows projected: every returned row holds the cells at the
// schema positions cols, which must ascend (nil: every column, ScanRows). A
// paged backend decodes only those cells; an in-memory one copies them, so
// callers that want whole rows of an in-memory table pass nil.
func (t *Table) ScanCols(lo, hi int, cols []int) ([][]value.Value, int64, error) {
	if err := t.checkCols(cols); err != nil {
		return nil, 0, err
	}
	return t.be.Scan(lo, hi, cols)
}

// FetchCols is FetchRows projected as ScanCols is.
func (t *Table) FetchCols(ids []int32, cols []int) ([][]value.Value, int64, error) {
	if err := t.checkCols(cols); err != nil {
		return nil, 0, err
	}
	return t.be.Fetch(ids, cols)
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
	rows, _, err := t.be.Fetch([]int32{int32(id)}, nil)
	if err != nil {
		panic(err)
	}
	return rows[0]
}

// Paged reports whether the backend's Scan/Fetch byte counts are real
// medium reads the engine should charge instead of the resident-byte
// approximation.
func (t *Table) Paged() bool { return t.be.Paged() }

// IO returns the backend's cumulative physical-read counters.
func (t *Table) IO() IOStats { return t.be.IO() }

// ColMeta returns the insert-time statistics of column ci.
func (t *Table) ColMeta(ci int) ColMeta { return t.meta[ci].snapshot() }

// Flush persists buffered rows and current table metadata (schema, index
// specs, row count) to the backend; a no-op for in-memory tables.
func (t *Table) Flush() error {
	return t.be.Flush(t.segmentMeta())
}

// Close flushes and releases the backend.
func (t *Table) Close() error {
	if err := t.Flush(); err != nil {
		t.be.Close()
		return err
	}
	return t.be.Close()
}

// segmentMeta snapshots the durable metadata a paged backend persists.
func (t *Table) segmentMeta() *SegmentMeta {
	m := &SegmentMeta{Schema: t.Schema, Rows: t.nrows}
	for _, ix := range t.Indexes() {
		m.Indexes = append(m.Indexes, IndexSpec{Col: ix.Col, Kind: ix.Kind})
	}
	return m
}

// EnsureIndex builds (or returns) the index of the given kind over the
// named column, backfilling existing rows with chunked backend scans of
// that one column. Later Inserts maintain it.
func (t *Table) EnsureIndex(col string, kind IndexKind) (*Index, error) {
	ci := t.Schema.ColIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("storage: table %s: no column %s to index", t.Schema.Name, col)
	}
	tag := indexTag{col: col, kind: kind}
	if ix, ok := t.indexes[tag]; ok {
		return ix, nil
	}
	ix := newIndex(col, kind)
	for lo := 0; lo < t.nrows; lo += backfillChunk {
		hi := lo + backfillChunk
		if hi > t.nrows {
			hi = t.nrows
		}
		rows, _, err := t.be.Scan(lo, hi, []int{ci})
		if err != nil {
			return nil, err
		}
		for k, row := range rows {
			ix.add(row[0], int32(lo+k))
		}
	}
	if t.indexes == nil {
		t.indexes = make(map[indexTag]*Index)
	}
	t.indexes[tag] = ix
	return ix, nil
}

// Index returns the index of the given kind on the named column, or nil.
func (t *Table) Index(col string, kind IndexKind) *Index {
	return t.indexes[indexTag{col: col, kind: kind}]
}

// Indexes returns every secondary index of the table.
func (t *Table) Indexes() []*Index {
	out := make([]*Index, 0, len(t.indexes))
	for _, ix := range t.indexes {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// HasKey reports whether the table enforces a unique Schema.Key.
func (t *Table) HasKey() bool { return t.key != nil }

// dropDerived discards all derived state — secondary indexes, the unique
// key index, and interning dictionaries — so nothing stale survives a
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
		ds, err := createDiskStore(c.cfg, &SegmentMeta{Schema: s})
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

// Flush persists every table's buffered rows and metadata.
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
