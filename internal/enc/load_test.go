package enc

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// loadFixture is a plaintext table shaped to exercise encryptTable's memo:
// a unique id running well past loadMemoCap (so its memo fills and stops
// inserting while later rows still hit and miss it), a 7-value integer, a
// date with repeats, a string column mixing duplicates, the empty string and
// one-byte strings, and NULLs in every nullable column.
func loadFixture(t *testing.T) (*storage.Catalog, int) {
	t.Helper()
	cat := storage.NewCatalog()
	tbl, err := cat.Create(storage.Schema{Name: "t", Cols: []storage.Column{
		{Name: "id", Type: storage.TInt}, {Name: "grp", Type: storage.TInt},
		{Name: "day", Type: storage.TDate}, {Name: "s", Type: storage.TStr},
	}})
	if err != nil {
		t.Fatal(err)
	}
	n := loadMemoCap + loadMemoCap/2
	strs := []string{"", "A", "N", "R", "FRANCE", "a longer string than one AES block"}
	for i := 0; i < n; i++ {
		grp, day, s := value.NewInt(int64(i%7-3)), value.NewDate(int64(9000+i%400)), value.NewStr(strs[i%len(strs)])
		if i%13 == 0 {
			grp = value.NewNull()
		}
		if i%17 == 0 {
			day = value.NewNull()
		}
		if i%19 == 0 {
			s = value.NewNull()
		}
		// Once the id memo is full, a third of the rows repeat an id it
		// holds and a third one it had no room for.
		id := int64(i)
		if i > loadMemoCap+200 {
			switch i % 3 {
			case 0:
				id = int64(i % 50)
			case 1:
				id = int64(i - 99)
			}
		}
		tbl.MustInsert([]value.Value{value.NewInt(id), grp, day, s})
	}
	return cat, n
}

func loadDesign() *Design {
	d := &Design{}
	d.Add(ColumnItem("t", "id", DET, value.Int))
	d.Add(ColumnItem("t", "id", OPE, value.Int))
	d.Add(ColumnItem("t", "grp", DET, value.Int))
	d.Add(ColumnItem("t", "grp", OPE, value.Int))
	d.Add(ColumnItem("t", "day", DET, value.Date))
	d.Add(ColumnItem("t", "day", OPE, value.Date))
	d.Add(ColumnItem("t", "s", DET, value.Str))
	d.Add(ColumnItem("t", "s", RND, value.Str))
	d.Add(ColumnItem("t", "s", SEARCH, value.Str))
	d.Add(ColumnItem("t", "grp", RND, value.Int))
	return d
}

// checkLoadedRows compares every DET and OPE cell of the loaded rows with
// KeyStore.EncryptValue of the plaintext cell, kind and bytes.
func checkLoadedRows(t *testing.T, what string, cat *storage.Catalog, ks *KeyStore, meta *TableMeta, rows [][]value.Value) {
	t.Helper()
	pt, err := cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != pt.NumRows() {
		t.Fatalf("%s: %d rows loaded, %d plaintext rows", what, len(rows), pt.NumRows())
	}
	for i := range meta.Items {
		it := &meta.Items[i]
		if it.Scheme != DET && it.Scheme != OPE {
			continue
		}
		src := pt.Schema.ColIndex(it.ExprSQL())
		if src < 0 {
			t.Fatalf("no plaintext column %s", it.ExprSQL())
		}
		for r, row := range rows {
			want, err := ks.EncryptValue(it, pt.Row(r)[src])
			if err != nil {
				t.Fatal(err)
			}
			if got := row[meta.ColumnOf(i)]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: row %d %s = %#v, row-by-row encryption gives %#v", what, r, it.ColumnName(), got, want)
			}
		}
	}
}

// TestBulkLoadMatchesRowByRow: the memo is invisible. Every DET and OPE cell
// of a bulk load — duplicates, NULLs, more distinct ids than loadMemoCap —
// is the cell EncryptValue produces on its own, in memory and read cold
// from a flushed disk segment (memoised Bytes cells of different rows share
// one backing array on the way in).
func TestBulkLoadMatchesRowByRow(t *testing.T) {
	cat, n := loadFixture(t)
	ks := testKeyStore(t)

	db, err := EncryptDatabase(cat, loadDesign(), ks)
	if err != nil {
		t.Fatal(err)
	}
	et, err := db.Cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := et.ScanRows(0, n)
	if err != nil {
		t.Fatal(err)
	}
	checkLoadedRows(t, "mem", cat, ks, db.Meta["t"], rows)

	dir := t.TempDir()
	cfg := storage.BackendConfig{Kind: storage.BackendDisk, Dir: dir, PageBytes: 1024, CacheBytes: 4096}
	ddb, err := EncryptDatabaseOn(cat, loadDesign(), ks, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ddb.Cat.Close()
	dt, err := ddb.Cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	rows, phys, err := dt.ScanRows(0, n)
	if err != nil {
		t.Fatal(err)
	}
	// Cold: every sealed page — all of the file but the tail page, which
	// the store still holds in memory — comes from the segment, none from
	// the block cache.
	fi, err := os.Stat(filepath.Join(dir, "t.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 4*cfg.CacheBytes || phys < fi.Size()-int64(cfg.PageBytes) {
		t.Fatalf("scan read %d of the segment's %d bytes; want a cold read of a table larger than the cache", phys, fi.Size())
	}
	checkLoadedRows(t, "disk, cold", cat, ks, ddb.Meta["t"], rows)
}

// TestBulkLoadNeverMemoisesRandomised: the property the memo must not touch.
// Only DET and OPE columns get a memo, and equal plaintexts in an RND column
// of one bulk load get different ciphertexts (a fresh IV per cell).
func TestBulkLoadNeverMemoisesRandomised(t *testing.T) {
	for _, s := range []Scheme{RND, SEARCH, HOM} {
		if newLoadMemo(s) != nil {
			t.Errorf("%v column gets a load memo", s)
		}
	}
	for _, s := range []Scheme{DET, OPE} {
		if newLoadMemo(s) == nil {
			t.Errorf("%v column gets no load memo", s)
		}
	}
	cat, n := loadFixture(t)
	ks := testKeyStore(t)
	db, err := EncryptDatabase(cat, loadDesign(), ks)
	if err != nil {
		t.Fatal(err)
	}
	et, err := db.Cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	meta := db.Meta["t"]
	for _, tc := range []struct {
		expr   string
		scheme Scheme
	}{{"s", RND}, {"grp", RND}} {
		idx, it := meta.FindItem(tc.expr, tc.scheme)
		if it == nil {
			t.Fatalf("no %v item over %s", tc.scheme, tc.expr)
		}
		col := meta.ColumnOf(idx)
		seen := make(map[string]int)
		for r := 0; r < n; r++ {
			cv := et.Row(r)[col]
			if cv.IsNull() {
				continue
			}
			if prev, dup := seen[string(cv.B)]; dup {
				t.Fatalf("%s: rows %d and %d hold the same RND ciphertext", it.ColumnName(), prev, r)
			}
			seen[string(cv.B)] = r
		}
	}
	// The DET copy of the same string column does repeat: the fixture has
	// duplicates for the memo to act on.
	idx, _ := meta.FindItem("s", DET)
	a, b := et.Row(1)[meta.ColumnOf(idx)], et.Row(7)[meta.ColumnOf(idx)]
	if !bytes.Equal(a.B, b.B) || len(a.B) != 1 {
		t.Fatalf("fixture: rows 1 and 7 should hold one one-byte DET ciphertext, got %x and %x", a.B, b.B)
	}
}

// TestLoadMemoStopsAtCap: past loadMemoCap distinct values the memo answers
// for what it holds and stores nothing more.
func TestLoadMemoStopsAtCap(t *testing.T) {
	ks := testKeyStore(t)
	it := ColumnItem("t", "id", DET, value.Int)
	c := ks.Cipher(&it)
	m := newLoadMemo(DET)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < loadMemoCap+100; i++ {
			got, err := m.encrypt(&c, value.NewInt(int64(i)))
			want, _ := ks.EncryptValue(&it, value.NewInt(int64(i)))
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d value %d: %#v, %v; want %#v", pass, i, got, err, want)
			}
		}
		if len(m.ints) != loadMemoCap {
			t.Fatalf("pass %d: memo holds %d entries, cap is %d", pass, len(m.ints), loadMemoCap)
		}
	}
	// Errors are returned, not remembered.
	ope := ColumnItem("t", "id", OPE, value.Int)
	oc := ks.Cipher(&ope)
	om := newLoadMemo(OPE)
	for i := 0; i < 2; i++ {
		if _, err := om.encrypt(&oc, value.NewInt(1<<50)); err == nil {
			t.Fatalf("call %d: out-of-domain OPE plaintext encrypted", i)
		}
	}
	if len(om.ints) != 0 {
		t.Errorf("memo stored %d failed encryptions", len(om.ints))
	}
}
