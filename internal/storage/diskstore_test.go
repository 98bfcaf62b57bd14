package storage

import (
	"errors"
	"fmt"
	"os"
	"strings"
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

// TestDiskStoreOversizedRow: a row larger than the page size gets its own
// oversized page and round-trips through a cold read.
func TestDiskStoreOversizedRow(t *testing.T) {
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: 256, CacheBytes: 256})
	defer cat.Close()
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
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	rows, phys, err := tb.ScanRows(0, tb.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || phys < int64(len(big)) {
		t.Fatalf("cold scan: %d rows, %d bytes read", len(rows), phys)
	}
	if got := rows[1][1]; len(got.B) != len(big) || got.B[1999] != big[1999] {
		t.Fatalf("oversized row damaged: %d bytes", len(got.B))
	}
	if got := rows[2][1]; string(got.B) != "after" {
		t.Fatalf("row after oversized page = %q", got.B)
	}
}

// coldFixture loads 200 fixture rows onto 512-byte pages behind a 2-page
// block cache and flushes them: nothing has been read yet, so a scan reads
// every sealed page from the segment file.
func coldFixture(t *testing.T) (*Table, string) {
	t.Helper()
	cat, dir := diskCatalog(t, BackendConfig{PageBytes: 512, CacheBytes: 1024})
	t.Cleanup(func() { cat.Close() })
	tb := loadFixture(t, cat, 200)
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	if io := tb.IO(); io.PageReads != 0 {
		t.Fatalf("fixture already read %d pages", io.PageReads)
	}
	return tb, segPath(dir, "orders")
}

// TestDiskStoreTruncated: a cold scan of a segment cut short fails with the
// typed corruption error naming the segment.
func TestDiskStoreTruncated(t *testing.T) {
	tb, seg := coldFixture(t)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	_, _, err = tb.ScanRows(0, tb.NumRows())
	if err == nil {
		t.Fatal("truncated segment scanned cleanly")
	}
	if !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("error %v does not wrap ErrCorruptSegment", err)
	}
	var se *SegmentError
	if !errors.As(err, &se) || se.Path != seg {
		t.Fatalf("error %v is not a *SegmentError for %s", err, seg)
	}
}

// TestDiskStoreCorrupted: a flipped payload byte fails the page checksum of
// a cold scan with the typed corruption error.
func TestDiskStoreCorrupted(t *testing.T) {
	tb, seg := coldFixture(t)
	f, err := os.OpenFile(seg, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the payload of the second page.
	if _, err := f.WriteAt([]byte{0xff}, 512+pageHeaderLen+20); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, _, err = tb.ScanRows(0, tb.NumRows())
	if !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("error %v does not wrap ErrCorruptSegment", err)
	}
	var se *SegmentError
	if !errors.As(err, &se) || se.Offset != 512 || !strings.Contains(se.Reason, "checksum") {
		t.Fatalf("error %v is not a checksum failure of the page at offset 512", err)
	}
}

// TestDiskStoreClosedTakesNoWrites: after Close, Insert and Flush fail as
// ErrClosed and the table's row count stays what the backend holds — also
// once the tail page would have sealed onto the closed file — and a second
// Close is a no-op, not a re-flush of the tail page.
func TestDiskStoreClosedTakesNoWrites(t *testing.T) {
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: 512})
	tb := loadFixture(t, cat, 10)
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 40; i++ { // several pages' worth
		if err := tb.Insert(fixtureRow(i)); !errors.Is(err, ErrClosed) {
			t.Fatalf("insert %d after Close: %v, want ErrClosed", i, err)
		}
	}
	if err := tb.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("flush after Close: %v, want ErrClosed", err)
	}
	if err := cat.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("catalog flush after Close: %v, want ErrClosed", err)
	}
	if n, held := tb.NumRows(), tb.be.NumRows(); n != 10 || held != 10 {
		t.Fatalf("NumRows = %d, backend holds %d, want 10", n, held)
	}
	if err := cat.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
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

// benchDiskTable loads 20 000 fixture rows (133 8 KiB pages, 1.1 MB) behind
// a 128 KiB block cache: the table is 8× the cache, so sequential scans
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
// per-op cost is 133 page reads, checksums and region checks, plus decoding
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
				rows, phys, err := tb.ScanCols(0, tb.NumRows(), cols, nil)
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
