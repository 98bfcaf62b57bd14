package enc

import (
	"fmt"
	"math/bits"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/packing"
	"repro/internal/storage"
	"repro/internal/value"
)

// GroupMeta describes one Paillier ciphertext group (one "ciphertext file",
// §7) of a table: which HOM items it packs and with what layout.
type GroupMeta struct {
	Name   string
	Items  []Item
	Layout packing.Layout
}

// TableMeta is the encrypted layout of one table: the non-HOM items in
// column order, plus the ciphertext groups.
type TableMeta struct {
	Name     string
	Items    []Item // non-HOM items; column i+rowIDOffset of the enc table
	HasRowID bool
	Groups   []*GroupMeta
}

// ColumnOf returns the encrypted-table column index of item i.
func (tm *TableMeta) ColumnOf(i int) int {
	if tm.HasRowID {
		return i + 1
	}
	return i
}

// FindItem locates a non-HOM item by expression SQL and scheme.
func (tm *TableMeta) FindItem(exprSQL string, scheme Scheme) (int, *Item) {
	for i := range tm.Items {
		it := &tm.Items[i]
		if it.Scheme == scheme && it.ExprSQL() == exprSQL {
			return i, it
		}
	}
	return -1, nil
}

// FindGroupColumn locates a HOM item inside the table's ciphertext groups,
// returning the group and the item's slot index within the group's layout.
func (tm *TableMeta) FindGroupColumn(exprSQL string) (*GroupMeta, int) {
	for _, g := range tm.Groups {
		for j := range g.Items {
			if g.Items[j].ExprSQL() == exprSQL {
				return g, j
			}
		}
	}
	return nil, -1
}

// DeclareIndexes declares the design's secondary indexes (IndexKindOf) on
// cat. On the encrypted catalog (encrypted set) each DET and OPE item's
// column gets one; on the plaintext catalog the base column each such item
// encrypts gets the same kind, so plaintext-vs-encrypted comparisons measure
// encryption, not index presence. Nothing is built: the first query that
// probes an index builds it (storage.Table.Index), so an index no query
// reads costs nothing. The engine reads whatever a table declares, so
// declaring is what turns index use on.
func DeclareIndexes(cat *storage.Catalog, design *Design, encrypted bool) error {
	for i := range design.Items {
		it := &design.Items[i]
		kind, indexed := IndexKindOf(it)
		cr, isCol := it.Expr.(*ast.ColumnRef)
		if !indexed || (!encrypted && !isCol) {
			continue // a precomputed expression has no plaintext column
		}
		col := it.ColumnName()
		if !encrypted {
			col = cr.Column
		}
		t, err := cat.Table(it.Table)
		if err != nil {
			continue
		}
		if err := t.DeclareIndex(col, kind); err != nil {
			return err
		}
	}
	return nil
}

// DB is an encrypted database: the server-side catalog of encrypted tables,
// the Paillier ciphertext files, and the layout metadata shared with the
// trusted client (the metadata reveals only schema structure, not data).
type DB struct {
	Cat    *storage.Catalog
	Stores map[string]*packing.Store
	Meta   map[string]*TableMeta
}

// TotalBytes is the full server-side footprint: encrypted heap tables plus
// ciphertext files. This is the quantity the space budget S constrains.
func (db *DB) TotalBytes() int64 {
	n := db.Cat.TotalBytes()
	for _, s := range db.Stores {
		n += s.Bytes()
	}
	return n
}

// EncryptDatabase transforms the plaintext catalog into an encrypted
// database under the given physical design. Each plaintext table named in
// the design becomes one encrypted table (one or more encrypted copies per
// column, §7) plus optional ciphertext files for the HOM groups.
func EncryptDatabase(plain *storage.Catalog, design *Design, ks *KeyStore) (*DB, error) {
	return EncryptDatabaseOn(plain, design, ks, 0, storage.BackendConfig{})
}

// EncryptDatabaseOn is EncryptDatabaseWith, then DeclareIndexes on the
// encrypted catalog. The int argument is ignored: the engine's expression
// scans over the plaintext tables cut into morsels on GOMAXPROCS workers.
// It stays only because the benchmark's layer harness (bench/layers.go),
// whose files are frozen, passes one; ROADMAP item 1(b) deletes it.
func EncryptDatabaseOn(plain *storage.Catalog, design *Design, ks *KeyStore, _ int, cfg storage.BackendConfig) (*DB, error) {
	db, err := EncryptDatabaseWith(plain, design, ks, cfg)
	if err != nil {
		return nil, err
	}
	if err := DeclareIndexes(db.Cat, design, true); err != nil {
		return nil, err
	}
	return db, nil
}

// EncryptDatabaseWith is EncryptDatabase with an explicit storage backend for
// the encrypted catalog, declaring no index: the zero config keeps the
// encrypted tables in memory, a disk config loads them straight into paged
// segment files (flushed table by table, so the load never holds more than
// the block cache resident).
func EncryptDatabaseWith(plain *storage.Catalog, design *Design, ks *KeyStore, cfg storage.BackendConfig) (*DB, error) {
	eng := engine.New(plain)
	db := &DB{
		Cat:    storage.NewCatalogWith(cfg),
		Stores: make(map[string]*packing.Store),
		Meta:   make(map[string]*TableMeta),
	}
	// Group items by table, preserving design order.
	tables := make([]string, 0)
	seen := make(map[string]bool)
	for _, it := range design.Items {
		if !seen[it.Table] {
			seen[it.Table] = true
			tables = append(tables, it.Table)
		}
	}
	for _, tbl := range tables {
		if err := encryptTable(db, eng, plain, design, ks, tbl); err != nil {
			return nil, fmt.Errorf("enc: table %s: %w", tbl, err)
		}
	}
	return db, nil
}

func encryptTable(db *DB, eng *engine.Engine, plain *storage.Catalog, design *Design, ks *KeyStore, tbl string) error {
	items := design.TableItems(tbl)
	var rowItems []Item // non-HOM, stored in the row
	var homItems []Item
	for _, it := range items {
		if it.Scheme == HOM {
			homItems = append(homItems, it)
		} else {
			rowItems = append(rowItems, it)
		}
	}

	// Evaluate every item expression over the plaintext table in one scan.
	q := ast.NewQuery()
	q.From = []ast.TableRef{{Name: tbl}}
	for _, it := range items {
		q.Projections = append(q.Projections, ast.SelectItem{Expr: it.Expr.Clone()})
	}
	res, err := eng.Execute(q, nil)
	if err != nil {
		return err
	}

	meta := &TableMeta{Name: tbl, Items: rowItems, HasRowID: len(homItems) > 0}
	db.Meta[tbl] = meta

	// Column index of each item in the evaluation result.
	colOf := make(map[string]int)
	for i, it := range items {
		colOf[it.Key()] = i
	}

	// Padding absorbs the carry of summing every row (§5.3): the paper
	// assumes ~2^27 rows; we size it from the actual table.
	padBits := bits.Len64(uint64(len(res.Rows))+1) + 1

	// Measure each HOM item's value width.
	homBits := make([]int, len(homItems))
	for j := range homItems {
		ci := colOf[homItems[j].Key()]
		maxBits := 1
		for _, row := range res.Rows {
			v := row[ci]
			if v.IsNull() {
				continue
			}
			x := v.AsInt()
			if x < 0 {
				return fmt.Errorf("HOM item %s: negative value %d not packable", homItems[j].Key(), x)
			}
			if b := bits.Len64(uint64(x)); b > maxBits {
				maxBits = b
			}
		}
		homBits[j] = maxBits
	}

	// Build HOM groups. Grouped addition packs a query's aggregated
	// columns together (§5.3); when a table's fields exceed one plaintext
	// the paper's "do not split a row across plaintexts" rule forces a new
	// group, so we first-fit items into plaintext-sized bins.
	plainBits := ks.Paillier().PlaintextBits()
	var groups [][]int // indexes into homItems
	if len(homItems) > 0 {
		if design.GroupedAddition {
			binBits := 0
			var bin []int
			for j := range homItems {
				fb := homBits[j] + padBits
				if fb > plainBits {
					return fmt.Errorf("HOM item %s needs %d bits, plaintext has %d", homItems[j].Key(), fb, plainBits)
				}
				if binBits+fb > plainBits && len(bin) > 0 {
					groups = append(groups, bin)
					bin = nil
					binBits = 0
				}
				bin = append(bin, j)
				binBits += fb
			}
			if len(bin) > 0 {
				groups = append(groups, bin)
			}
		} else {
			for j := range homItems {
				groups = append(groups, []int{j})
			}
		}
	}

	// Encrypted table schema.
	schema := storage.Schema{Name: tbl}
	if meta.HasRowID {
		schema.Cols = append(schema.Cols, storage.Column{Name: RowIDColumn, Type: storage.TInt})
	}
	for i := range rowItems {
		it := &rowItems[i]
		typ := storage.TBytes
		if it.CiphertextKind() == value.Int {
			typ = storage.TInt
		}
		schema.Cols = append(schema.Cols, storage.Column{Name: it.ColumnName(), Type: typ})
	}
	schema.Key = encryptedKey(plain, tbl, rowItems)
	encTable, err := db.Cat.Create(schema)
	if err != nil {
		return err
	}

	// Encrypt row items, each resolved to its cipher and source column once.
	// DET and OPE columns encrypt each distinct plaintext once (loadMemo).
	ciphers := make([]Cipher, len(rowItems))
	srcCol := make([]int, len(rowItems))
	memos := make([]*loadMemo, len(rowItems))
	for i := range rowItems {
		ciphers[i] = ks.Cipher(&rowItems[i])
		srcCol[i] = colOf[rowItems[i].Key()]
		memos[i] = newLoadMemo(rowItems[i].Scheme)
	}
	for rowID, row := range res.Rows {
		out := make([]value.Value, 0, len(schema.Cols))
		if meta.HasRowID {
			out = append(out, value.NewInt(int64(rowID)))
		}
		for i := range ciphers {
			cv, err := memos[i].encrypt(&ciphers[i], row[srcCol[i]])
			if err != nil {
				return fmt.Errorf("item %s: %w", rowItems[i].Key(), err)
			}
			out = append(out, cv)
		}
		if err := encTable.Insert(out); err != nil {
			return err
		}
	}
	// Write the loaded rows out to the segment; a no-op for the in-memory
	// backend.
	if err := encTable.Flush(); err != nil {
		return err
	}

	// Build the ciphertext files.
	for gi, bin := range groups {
		gname := fmt.Sprintf("%s/g%d", tbl, gi)
		gItems := make([]Item, len(bin))
		cols := make([]packing.Col, len(bin))
		for bj, j := range bin {
			gItems[bj] = homItems[j]
			cols[bj] = packing.Col{Name: homItems[j].ColumnName(), Bits: homBits[j]}
		}
		vals := make([][]int64, len(res.Rows))
		for r, row := range res.Rows {
			vals[r] = make([]int64, len(bin))
			for bj, j := range bin {
				v := row[colOf[homItems[j].Key()]]
				if v.IsNull() {
					continue // packs as zero; TPC-H data is NULL-free
				}
				vals[r][bj] = v.AsInt()
			}
		}
		layout, err := packing.NewLayout(cols, padBits, plainBits, design.MultiRowPacking)
		if err != nil {
			return err
		}
		store, err := packing.BuildStore(gname, ks.Paillier(), layout, vals)
		if err != nil {
			return err
		}
		db.Stores[gname] = store
		meta.Groups = append(meta.Groups, &GroupMeta{Name: gname, Items: gItems, Layout: layout})
	}
	return nil
}

// loadMemoCap bounds the distinct plaintexts one column's loadMemo holds; past
// it the memo keeps answering for what it has and stops growing. Sized on the
// benchmark's TPC-H SF 0.01 load, where the columns that repeat are far below
// it (l_shipdate and the other dates ~2 500 distinct values in 60 000 rows,
// l_partkey 2 000, l_quantity 50, l_discount 11, the flags 2–3) and the ones
// above it (l_orderkey 15 000, prices, comments) repeat little or not at all:
// a full memo costs a key and a 64-byte cell per entry and is dropped with
// the table.
const loadMemoCap = 4096

// loadMemo holds, for one DET or OPE column of one bulk load, the ciphertext
// of each distinct plaintext seen so far. Both schemes are deterministic by
// definition — the server sees equal ciphertexts for equal plaintexts either
// way — so reusing a ciphertext changes no stored byte; RND and SEARCH
// columns get none (a nil *loadMemo encrypts directly). It is keyed on
// what the cipher reads, the integer behind Int, Date and Bool or the string,
// and lives in encryptTable's frame: no shared state, no lock. Memoised Bytes
// cells of different rows share a backing array, which storage never writes
// through.
type loadMemo struct {
	ints map[int64]value.Value
	strs map[string]value.Value
}

// newLoadMemo returns an empty memo for a column of a deterministic scheme,
// nil for any other.
func newLoadMemo(s Scheme) *loadMemo {
	if s != DET && s != OPE {
		return nil
	}
	return &loadMemo{ints: make(map[int64]value.Value), strs: make(map[string]value.Value)}
}

// encrypt is c.Encrypt(v), answered from the memo when v was seen before.
func (m *loadMemo) encrypt(c *Cipher, v value.Value) (value.Value, error) {
	if m != nil {
		switch v.K {
		case value.Int, value.Date, value.Bool:
			return memoise(m.ints, v.I, c, v)
		case value.Str:
			return memoise(m.strs, v.S, c, v)
		}
	}
	return c.Encrypt(v)
}

// memoise is loadMemo.encrypt for one of its maps: failed encryptions are
// returned and not remembered.
func memoise[K comparable](memo map[K]value.Value, k K, c *Cipher, v value.Value) (value.Value, error) {
	if cv, ok := memo[k]; ok {
		return cv, nil
	}
	cv, err := c.Encrypt(v)
	if err == nil && len(memo) < loadMemoCap {
		memo[k] = cv
	}
	return cv, err
}

// encryptedKey maps the plaintext table's primary key onto the encrypted
// schema: when every key column carries a DET item (deterministic
// encryption preserves equality, so plaintext uniqueness carries over), the
// encrypted table declares the corresponding `<col>_det` columns as its
// key and enforces the same uniqueness on load. Any gap — no plaintext
// key, or a key column without DET — yields no key.
func encryptedKey(plain *storage.Catalog, tbl string, rowItems []Item) []string {
	pt, err := plain.Table(tbl)
	if err != nil || len(pt.Schema.Key) == 0 {
		return nil
	}
	key := make([]string, 0, len(pt.Schema.Key))
	for _, kc := range pt.Schema.Key {
		found := ""
		for i := range rowItems {
			it := &rowItems[i]
			if it.Scheme != DET {
				continue
			}
			if cr, ok := it.Expr.(*ast.ColumnRef); ok && cr.Column == kc {
				found = it.ColumnName()
				break
			}
		}
		if found == "" {
			return nil
		}
		key = append(key, found)
	}
	return key
}
