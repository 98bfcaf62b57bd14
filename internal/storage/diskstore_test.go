package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/value"
)

func diskCatalog(t testing.TB, cfg BackendConfig) (*Catalog, string) {
	t.Helper()
	dir := t.TempDir()
	cfg.Kind = BackendDisk
	cfg.Dir = dir
	return NewCatalogWith(cfg), dir
}

func fixtureSchema() Schema {
	return Schema{
		Name: "orders",
		Cols: []Column{
			{Name: "id", Type: TInt},
			{Name: "region", Type: TStr},
			{Name: "total", Type: TFloat},
			{Name: "day", Type: TDate},
			{Name: "blob", Type: TBytes},
			{Name: "rush", Type: TBool},
			{Name: "note", Type: TStr},
		},
		Key: []string{"id"},
	}
}

func fixtureRow(i int) []value.Value {
	note := value.NewNull()
	if i%3 == 0 {
		note = value.NewStr(fmt.Sprintf("note for order %d with some padding text", i))
	}
	return []value.Value{
		value.NewInt(int64(i)),
		value.NewStr([]string{"east", "west", "north"}[i%3]), // interns heavily
		value.NewFloat(float64(i) * 1.5),
		value.NewDate(int64(20130800 + i%28)),
		value.NewBytes([]byte{byte(i), byte(i >> 8), 0xfe}),
		value.NewBool(i%2 == 0),
		note,
	}
}

func loadFixture(t testing.TB, cat *Catalog, n int) *Table {
	t.Helper()
	tb, err := cat.Create(fixtureSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.EnsureIndex("region", HashIndex); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.EnsureIndex("day", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tb.MustInsert(fixtureRow(i))
	}
	return tb
}

func sameRows(t *testing.T, got, want *Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	g, _, err := got.ScanRows(0, got.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := want.ScanRows(0, want.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	if d := diffRows(g, w); d != "" {
		t.Fatal(d)
	}
}

// diffRows describes the first difference between two batches ("" when
// they hold the same values of the same kinds).
func diffRows(got, want [][]value.Value) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d: %d values, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			g, w := got[i][j], want[i][j]
			if g.IsNull() && w.IsNull() {
				continue // SQL NULL != NULL; storage-wise they are the same
			}
			if g.K != w.K || !value.Equal(g, w) {
				return fmt.Sprintf("row %d col %d: %v (kind %v), want %v (kind %v)", i, j, g, g.K, w, w.K)
			}
		}
	}
	return ""
}

// TestDiskStoreMatchesMem: the disk backend stores and returns exactly what
// the in-memory backend does — rows, kinds (Bool included, which the bare
// wire codec would flatten), accounting, and index behavior.
func TestDiskStoreMatchesMem(t *testing.T) {
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: 512, CacheBytes: 4096})
	dt := loadFixture(t, cat, 300)
	mt := loadFixture(t, NewCatalog(), 300)

	if !dt.Paged() || mt.Paged() {
		t.Fatal("Paged() backwards")
	}
	sameRows(t, dt, mt)
	if dt.Bytes != mt.Bytes || dt.RawBytes != mt.RawBytes {
		t.Errorf("accounting: disk %d/%d, mem %d/%d", dt.Bytes, dt.RawBytes, mt.Bytes, mt.RawBytes)
	}
	probe := value.NewStr("west")
	if g, w := dt.Index("region", HashIndex).Postings(probe), mt.Index("region", HashIndex).Postings(probe); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Errorf("postings diverge: %v vs %v", g, w)
	}
	// Batch scans hit the block cache; physical reads are real and bounded.
	mid, phys, err := dt.ScanRows(40, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) != 40 || mid[0][0].AsInt() != 40 {
		t.Fatalf("mid scan wrong: %d rows, first id %v", len(mid), mid[0][0])
	}
	if phys < 0 {
		t.Fatalf("negative phys %d", phys)
	}
	io := dt.IO()
	if io.PageReads == 0 || io.PageReads != io.CacheMisses || io.BytesRead == 0 {
		t.Errorf("io counters inconsistent: %+v", io)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskStoreReopen: write, close, reopen — rows, accounting, interning,
// key uniqueness, and both secondary indexes all survive the round trip.
func TestDiskStoreReopen(t *testing.T) {
	cat, dir := diskCatalog(t, BackendConfig{PageBytes: 512, CacheBytes: 8192})
	orig := loadFixture(t, cat, 260)
	mem := loadFixture(t, NewCatalog(), 260)
	origBytes, origRaw := orig.Bytes, orig.RawBytes
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenTable(filepath.Join(dir, "orders.seg"), BackendConfig{PageBytes: 512, CacheBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sameRows(t, re, mem)
	if re.Bytes != origBytes || re.RawBytes != origRaw {
		t.Errorf("accounting rebuilt as %d/%d, want %d/%d", re.Bytes, re.RawBytes, origBytes, origRaw)
	}
	// Index specs persisted and rebuilt.
	if re.Index("region", HashIndex) == nil || re.Index("day", OrderedIndex) == nil {
		t.Fatalf("indexes not rebuilt: %v", re.Indexes())
	}
	probe := value.NewStr("north")
	if g, w := re.Index("region", HashIndex).Postings(probe), mem.Index("region", HashIndex).Postings(probe); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Errorf("rebuilt postings diverge: %v vs %v", g, w)
	}
	lo, hi := value.NewDate(20130805), value.NewDate(20130810)
	if g, w := re.Index("day", OrderedIndex).Range(&lo, &hi, true, true), mem.Index("day", OrderedIndex).Range(&lo, &hi, true, true); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Errorf("rebuilt range diverges: %v vs %v", g, w)
	}
	// Key uniqueness survives: a duplicate id is rejected, a fresh one
	// appends and is readable.
	if !re.HasKey() {
		t.Fatal("key index not rebuilt")
	}
	if err := re.Insert(fixtureRow(7)); err == nil {
		t.Fatal("duplicate key accepted after reopen")
	}
	if err := re.Insert(fixtureRow(260)); err != nil {
		t.Fatal(err)
	}
	if got := re.Row(260)[0].AsInt(); got != 260 {
		t.Fatalf("appended row id = %d", got)
	}
	// Column stats rebuilt for the planner.
	if cm := re.ColMeta(0); cm.NDV != 261 || !cm.HasNum || cm.Min != 0 || cm.Max != 260 {
		t.Errorf("id ColMeta = %+v", cm)
	}
	if cm := re.ColMeta(1); cm.NDV != 3 {
		t.Errorf("region NDV = %d, want 3", cm.NDV)
	}
}

// TestDiskStoreReopenAppendReopen: rows appended after a reopen persist
// through a second close/reopen cycle (the reopened tail starts a fresh
// page).
func TestDiskStoreReopenAppendReopen(t *testing.T) {
	cfg := BackendConfig{PageBytes: 512}
	cat, dir := diskCatalog(t, cfg)
	loadFixture(t, cat, 50)
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "orders.seg")

	re, err := OpenTable(seg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 120; i++ {
		re.MustInsert(fixtureRow(i))
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	re2, err := OpenTable(seg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	mem := loadFixture(t, NewCatalog(), 120)
	sameRows(t, re2, mem)
}

// TestDiskStoreOversizedRow: a row larger than the page size gets its own
// oversized page and round-trips.
func TestDiskStoreOversizedRow(t *testing.T) {
	cfg := BackendConfig{PageBytes: 256}
	cat, dir := diskCatalog(t, cfg)
	s := Schema{Name: "big", Cols: []Column{{Name: "id", Type: TInt}, {Name: "body", Type: TBytes}}}
	tb, err := cat.Create(s)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 2000)
	for i := range big {
		big[i] = byte(i * 7)
	}
	tb.MustInsert([]value.Value{value.NewInt(1), value.NewBytes([]byte("small"))})
	tb.MustInsert([]value.Value{value.NewInt(2), value.NewBytes(big)})
	tb.MustInsert([]value.Value{value.NewInt(3), value.NewBytes([]byte("after"))})
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenTable(filepath.Join(dir, "big.seg"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumRows() != 3 {
		t.Fatalf("rows = %d", re.NumRows())
	}
	if got := re.Row(1)[1]; len(got.B) != len(big) || got.B[1999] != big[1999] {
		t.Fatalf("oversized row damaged: %d bytes", len(got.B))
	}
	if got := re.Row(2)[1]; string(got.B) != "after" {
		t.Fatalf("row after oversized page = %q", got.B)
	}
}

// TestDiskStoreTruncated: a segment cut short fails to open with the typed
// corruption error.
func TestDiskStoreTruncated(t *testing.T) {
	cfg := BackendConfig{PageBytes: 512}
	cat, dir := diskCatalog(t, cfg)
	loadFixture(t, cat, 200)
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "orders.seg")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-300); err != nil {
		t.Fatal(err)
	}
	_, err = OpenTable(seg, cfg)
	if err == nil {
		t.Fatal("truncated segment opened cleanly")
	}
	if !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("error %v does not wrap ErrCorruptSegment", err)
	}
	var se *SegmentError
	if !errors.As(err, &se) || se.Path != seg {
		t.Fatalf("error %v is not a *SegmentError for %s", err, seg)
	}
}

// TestDiskStoreCorrupted: a flipped payload byte fails the page checksum
// during rebuild-on-open with the typed corruption error.
func TestDiskStoreCorrupted(t *testing.T) {
	cfg := BackendConfig{PageBytes: 512}
	cat, dir := diskCatalog(t, cfg)
	loadFixture(t, cat, 200)
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "orders.seg")
	f, err := os.OpenFile(seg, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the payload of the second data page.
	if _, err := f.WriteAt([]byte{0xff}, 512+512+pageHeaderLen+20); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = OpenTable(seg, cfg)
	if err == nil {
		t.Fatal("corrupted segment opened cleanly")
	}
	if !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("error %v does not wrap ErrCorruptSegment", err)
	}
}

// TestDiskStoreBadMagic: a file that is not a segment is rejected.
func TestDiskStoreBadMagic(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "orders.seg")
	if err := os.WriteFile(seg, []byte("definitely not a MONOSEG1 file, just text"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenTable(seg, BackendConfig{})
	if !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("error %v does not wrap ErrCorruptSegment", err)
	}
}

// TestDiskStoreCacheEviction: a table larger than the block cache misses on
// a cold sequential scan and hits when rescanning inside the cache window.
func TestDiskStoreCacheEviction(t *testing.T) {
	// ~300 rows over 512-byte pages, cache of 2 pages.
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: 512, CacheBytes: 1024})
	tb := loadFixture(t, cat, 300)
	defer cat.Close()
	base := tb.IO()
	if _, _, err := tb.ScanRows(0, 300); err != nil {
		t.Fatal(err)
	}
	afterCold := tb.IO()
	coldReads := afterCold.PageReads - base.PageReads
	if coldReads < 5 {
		t.Fatalf("cold scan read only %d pages; table should span many pages", coldReads)
	}
	// Rescan of the final rows stays within the cache.
	if _, _, err := tb.ScanRows(290, 300); err != nil {
		t.Fatal(err)
	}
	afterWarm := tb.IO()
	if afterWarm.PageReads != afterCold.PageReads {
		t.Errorf("warm rescan of cached tail read %d pages", afterWarm.PageReads-afterCold.PageReads)
	}
	if afterWarm.CacheHits <= afterCold.CacheHits {
		t.Errorf("warm rescan recorded no cache hits")
	}
	if hr := afterWarm.HitRate(); hr <= 0 || hr >= 1 {
		t.Errorf("hit rate %v out of (0,1)", hr)
	}
}

// TestParseBackendKind covers the flag surface.
func TestParseBackendKind(t *testing.T) {
	for _, c := range []struct {
		in   string
		want BackendKind
		err  bool
	}{
		{"", BackendMem, false},
		{"mem", BackendMem, false},
		{"memory", BackendMem, false},
		{"disk", BackendDisk, false},
		{"tape", BackendMem, true},
	} {
		got, err := ParseBackendKind(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseBackendKind(%q) = %v, %v", c.in, got, err)
		}
	}
	if BackendDisk.String() != "disk" || BackendMem.String() != "mem" {
		t.Error("BackendKind.String wrong")
	}
}

// benchDiskTable loads 20 000 fixture rows (164 8 KiB pages, 1.3 MB) behind
// a 128 KiB block cache: the table is 10× the cache, so sequential scans
// and scattered fetches miss on nearly every page.
func benchDiskTable(b *testing.B) *Table {
	b.Helper()
	const rows, cache = 20000, 128 << 10
	cat, dir := diskCatalog(b, BackendConfig{CacheBytes: cache})
	b.Cleanup(func() { cat.Close() })
	tb := loadFixture(b, cat, rows)
	if err := tb.Flush(); err != nil {
		b.Fatal(err)
	}
	if fi, err := os.Stat(segPath(dir, "orders")); err != nil || fi.Size() < 8*cache {
		b.Fatalf("segment must be at least 8x the cache (size %v, err %v)", fi, err)
	}
	return tb
}

// BenchmarkDiskScanThrash: whole-table scans through a thrashing cache —
// per-op cost is 164 page reads, checksums and frame walks, plus decoding
// every column (all) or two of the fixture's seven (projected: id, blob).
func BenchmarkDiskScanThrash(b *testing.B) {
	tb := benchDiskTable(b)
	for _, c := range []struct {
		name string
		cols []int
	}{{"all", nil}, {"projected", []int{0, 4}}} {
		cols := c.cols
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, phys, err := tb.ScanCols(0, tb.NumRows(), cols)
				if err != nil || len(rows) != tb.NumRows() || phys == 0 {
					b.Fatalf("%d rows, %d bytes, err %v", len(rows), phys, err)
				}
			}
		})
	}
}

// BenchmarkDiskFetchCold: 256 ids spread over the whole table, the access
// path's shape at its worst — every page is read and verified for 1.6 rows
// of it, and only those rows are decoded.
func BenchmarkDiskFetchCold(b *testing.B) {
	tb := benchDiskTable(b)
	ids := make([]int32, 256)
	for i := range ids {
		ids[i] = int32(i * (tb.NumRows() / len(ids)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, phys, err := tb.FetchRows(ids)
		if err != nil || len(rows) != len(ids) || phys == 0 {
			b.Fatalf("%d rows, %d bytes, err %v", len(rows), phys, err)
		}
	}
}
