package storage

// Tests of the disk store's read path — page verification (verifyPage), the
// projected row decoder (appendCols) — and of its read-side lock scope:
// corruption typing at the verifier, projected reads against the projection
// of all-column reads, concurrent readers against an in-memory twin, the
// lifetime of batches that alias an evicted page, and the per-page
// allocation count.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/value"
)

// rawPage is one sealed page as it sits in the file.
type rawPage struct {
	pm    pageMeta
	raw   []byte
	ncols int
}

// decodeAll verifies a raw page and decodes every cell of every row: the
// whole read path of one page, all columns.
func decodeAll(raw []byte, pm pageMeta, ncols int) ([][]value.Value, error) {
	img, err := verifyPage(raw, "p.seg", pm, ncols)
	if err != nil {
		return nil, err
	}
	b := newRowBatch(len(img.rows), ncols)
	for r := range img.rows {
		start := len(b.arena)
		if b.arena, err = img.appendCols(b.arena, r, nil); err != nil {
			return nil, err
		}
		b.cut(start)
	}
	return b.rows, nil
}

// sealedPages reads every sealed page of a disk table back as raw images.
func sealedPages(t testing.TB, tb *Table) []rawPage {
	t.Helper()
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	ds := tb.be.(*diskStore)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	var out []rawPage
	for _, pm := range ds.dir {
		raw := make([]byte, pm.physLen)
		if _, err := ds.f.ReadAt(raw, pm.off); err != nil {
			t.Fatal(err)
		}
		out = append(out, rawPage{pm: pm, raw: raw, ncols: ds.ncols})
	}
	return out
}

// realPages are the images the decoder tests mutate: fixture pages (every
// kind, Bool and NULL included) and an oversized single-row page.
func realPages(t testing.TB) []rawPage {
	t.Helper()
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: 512})
	t.Cleanup(func() { cat.Close() })
	pages := sealedPages(t, loadFixture(t, cat, 40))
	if len(pages) > 3 {
		pages = pages[:3]
	}
	big, err := cat.Create(Schema{Name: "big", Cols: []Column{{Name: "id", Type: TInt}, {Name: "ok", Type: TBool}, {Name: "body", Type: TBytes}}})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{5, 700, 5} {
		big.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewBool(i == 1), value.NewBytes(make([]byte, n))})
	}
	bigPages := sealedPages(t, big)
	if len(bigPages) < 2 || bigPages[1].pm.physLen <= 512 || bigPages[1].pm.nrows != 1 {
		t.Fatalf("fixture lost its oversized page (%d sealed pages)", len(bigPages))
	}
	return append(pages, bigPages[1])
}

// mustCorrupt asserts err is the typed corruption error for path.
func mustCorrupt(t *testing.T, err error, what string) *SegmentError {
	t.Helper()
	var se *SegmentError
	if !errors.Is(err, ErrCorruptSegment) || !errors.As(err, &se) || se.Path != "p.seg" {
		t.Fatalf("%s: error %v is not a *SegmentError for p.seg wrapping ErrCorruptSegment", what, err)
	}
	return se
}

// TestDecodePageDamage: every truncation prefix and every single-byte flip
// of a real page either fails typed or — when only padding changed —
// decodes exactly the original rows.
func TestDecodePageDamage(t *testing.T) {
	for pi, p := range realPages(t) {
		want, err := decodeAll(append([]byte(nil), p.raw...), p.pm, p.ncols)
		if err != nil {
			t.Fatalf("page %d: pristine image fails: %v", pi, err)
		}
		if len(want) != p.pm.nrows {
			t.Fatalf("page %d: %d rows, directory says %d", pi, len(want), p.pm.nrows)
		}
		check := func(raw []byte, what string) bool {
			got, err := decodeAll(raw, p.pm, p.ncols)
			if err != nil {
				mustCorrupt(t, err, what)
				return false
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("page %d %s: decoded different rows without an error", pi, what)
			}
			return true
		}
		used := int(binary.BigEndian.Uint32(p.raw[4:8]))
		for n := 0; n < len(p.raw); n++ {
			if ok := check(append([]byte(nil), p.raw[:n]...), "truncated"); ok != (n >= pageHeaderLen+used) {
				t.Fatalf("page %d truncated to %d bytes (payload ends at %d): decoded = %v", pi, n, pageHeaderLen+used, ok)
			}
		}
		for at := range p.raw {
			for _, x := range []byte{0x01, 0x80, 0xff} {
				raw := append([]byte(nil), p.raw...)
				raw[at] ^= x
				if ok := check(raw, "flipped"); ok != (at >= pageHeaderLen+used) {
					t.Fatalf("page %d byte %d ^ %#x (payload ends at %d): decoded = %v", pi, at, x, pageHeaderLen+used, ok)
				}
			}
		}
	}
}

// pageOf frames a payload as a page image with a valid checksum.
func pageOf(nrows int, payload []byte) []byte {
	raw := make([]byte, pageHeaderLen, pageHeaderLen+len(payload)+8)
	binary.BigEndian.PutUint32(raw[0:4], uint32(nrows))
	binary.BigEndian.PutUint32(raw[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint32(raw[8:12], crc32.ChecksumIEEE(payload))
	return append(append(raw, payload...), make([]byte, 8)...) // padding
}

// TestDecodePageCorruptionTable drives each check behind the checksum with
// a hand-built payload whose checksum is valid, and the ones in front of it
// with a damaged header; reasons and offsets are what readPage and then
// decodePage reported before verification was split from decoding.
func TestDecodePageCorruptionTable(t *testing.T) {
	row := func(frames ...byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(frames))), frames...)
	}
	intv := []byte{1, 0, 0, 0, 0, 0, 0, 0, 7}    // Int 7
	good := row(append(intv, pageTagBool, 1)...) // 15 bytes
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	pm := pageMeta{off: 4096, first: 100, nrows: 2}
	const hdr = int64(pageHeaderLen)
	damaged := func(f func(raw []byte) []byte) []byte { return f(pageOf(2, cat(good, good))) }

	for _, c := range []struct {
		name   string
		raw    []byte
		off    int64
		reason string
	}{
		{"short header", pageOf(2, cat(good, good))[:pageHeaderLen-1], 4096, "truncated page header"},
		{"row count differs from directory", pageOf(3, cat(good, good, good)), 4096, "page header changed shape (3 rows"},
		{"used runs past the image", damaged(func(raw []byte) []byte {
			binary.BigEndian.PutUint32(raw[4:8], uint32(len(raw)))
			return raw
		}), 4096, "page header changed shape"},
		{"checksum", damaged(func(raw []byte) []byte { raw[8]++; return raw }), 4096, "page checksum mismatch"},
		{"second row length cut", pageOf(2, cat(good, []byte{0, 0})), 4096 + hdr + 15, "row 101: truncated row length"},
		{"row frame past the payload", pageOf(2, cat(good, []byte{0, 0, 0, 99, 1})), 4096 + hdr + 15, "row 101: row frame (99 bytes) past end of page"},
		{"bool cut by the row frame", pageOf(2, cat(row(pageTagBool), good)), 4096 + hdr, "row 100: truncated bool"},
		{"integer cut by the row frame", pageOf(2, cat(good, row(intv[:5]...))), 4096 + hdr + 15, "row 101: wire: truncated integer"},
		{"string runs into the next row", pageOf(2, cat(row(3, 0, 0, 0, 9, 'a'), good)), 4096 + hdr, "row 100: wire: truncated payload (need 9 bytes)"},
		{"unknown tag", pageOf(2, cat(good, row(99))), 4096 + hdr + 15, "row 101: wire: unknown tag 99"},
		{"row one value short", pageOf(2, cat(good, row(intv...))), 4096 + hdr + 15, "row 101: 1 values, schema has 2 columns"},
		{"row one value long", pageOf(2, cat(row(append(intv, 0, pageTagBool, 1)...), good)), 4096 + hdr, "row 100: 3 values, schema has 2 columns"},
		{"trailing payload", pageOf(2, cat(good, good, []byte{0})), 4096, "page has 1 trailing payload bytes"},
		{"fewer rows than payload", pageOf(2, cat(good, good, good)), 4096, "page has 15 trailing payload bytes"},
	} {
		_, err := verifyPage(c.raw, "p.seg", pm, 2)
		if err == nil {
			t.Errorf("%s: decoded cleanly", c.name)
			continue
		}
		se := mustCorrupt(t, err, c.name)
		if se.Offset != c.off || !strings.Contains(se.Reason, c.reason) {
			t.Errorf("%s: offset %d reason %q, want offset %d reason containing %q", c.name, se.Offset, se.Reason, c.off, c.reason)
		}
	}

	// A header that lies about the row count cannot size the allocation: the
	// payload bounds it.
	huge := pageMeta{off: 4096, nrows: 1 << 31}
	if _, err := verifyPage(pageOf(1<<31, cat(good, good)), "p.seg", huge, 2); err == nil {
		t.Fatal("2^31-row header over a 30-byte payload verified cleanly")
	} else {
		mustCorrupt(t, err, "huge row count")
	}
}

// FuzzDecodePage mutates real page images, with the directory's row count
// alongside; restamp rewrites the checksum so mutations reach the row and
// value checks behind it. Verification must fail typed or yield the row
// count it was promised, every row of the promised arity, and neither it
// nor the decoder may panic.
func FuzzDecodePage(f *testing.F) {
	for _, p := range realPages(f) {
		f.Add(p.raw, uint16(p.pm.nrows), uint8(p.ncols), false)
		f.Add(p.raw, uint16(p.pm.nrows), uint8(p.ncols), true)
	}
	f.Fuzz(func(t *testing.T, raw []byte, nrows uint16, ncols uint8, restamp bool) {
		if restamp && len(raw) >= pageHeaderLen {
			if used := int(binary.BigEndian.Uint32(raw[4:8])); pageHeaderLen+used <= len(raw) {
				binary.BigEndian.PutUint32(raw[8:12], crc32.ChecksumIEEE(raw[pageHeaderLen:pageHeaderLen+used]))
			}
		}
		pm := pageMeta{off: 512, physLen: int64(len(raw)), first: 3, nrows: int(nrows)}
		rows, err := decodeAll(raw, pm, int(ncols))
		if err != nil {
			mustCorrupt(t, err, "fuzzed page")
			return
		}
		if len(rows) != int(nrows) {
			t.Fatalf("decoded %d rows, directory says %d", len(rows), nrows)
		}
		// What decoded re-frames: every value is of a kind the page codec
		// writes.
		for _, row := range rows {
			if len(row) != int(ncols) {
				t.Fatalf("verified row has %d values, want %d", len(row), ncols)
			}
			if _, err := appendRow(nil, row); err != nil {
				t.Fatalf("decoded row does not re-encode: %v", err)
			}
		}
	})
}

// projectRows is the reference projection: the cols cells of each row.
func projectRows(rows [][]value.Value, cols []int) [][]value.Value {
	if cols == nil {
		return rows
	}
	out := make([][]value.Value, len(rows))
	for i, row := range rows {
		out[i] = make([]value.Value, len(cols))
		for k, c := range cols {
			out[i][k] = row[c]
		}
	}
	return out
}

// TestDiskStoreProjectedReads: for random ascending column subsets — the
// empty one (COUNT(*)), Bool and Str columns among them — a projected Scan
// or Fetch returns exactly the projection of the all-columns result, on
// both backends, over ranges that straddle pages, reach into the unsealed
// tail page and cross an oversized-row page, and for id lists in any order.
func TestDiskStoreProjectedReads(t *testing.T) {
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: 512, CacheBytes: 2048})
	defer cat.Close()
	fixture := loadFixture(t, cat, 203)
	big, err := cat.Create(Schema{Name: "big", Cols: []Column{{Name: "id", Type: TInt}, {Name: "ok", Type: TBool}, {Name: "body", Type: TBytes}, {Name: "tag", Type: TStr}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		n := 5
		if i%9 == 4 {
			n = 700 // alone on an oversized page
		}
		big.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewBool(i%3 == 0), value.NewBytes(make([]byte, n)), value.NewStr(fmt.Sprint("t", i))})
	}
	mem := loadFixture(t, NewCatalog(), 203)

	rng := rand.New(rand.NewSource(7))
	for _, tb := range []*Table{fixture, big, mem} {
		if ds, ok := tb.be.(*diskStore); ok {
			oversized := false
			for _, pm := range ds.dir {
				oversized = oversized || pm.physLen > 512
			}
			if len(ds.tail) == 0 || len(ds.dir) < 5 || oversized != (tb == big) {
				t.Fatalf("%s: fixture lost its shape: %d sealed pages, %d tail rows, oversized %v", tb.Schema.Name, len(ds.dir), len(ds.tail), oversized)
			}
		}
		n, ncols := tb.NumRows(), len(tb.Schema.Cols)
		for round := 0; round < 300; round++ {
			cols := []int{} // round 0: no column at all
			for c := 0; c < ncols && round > 0; c++ {
				if rng.Intn(2) == 0 {
					cols = append(cols, c)
				}
			}
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			if round%10 == 1 {
				lo, hi = 0, n // everything, tail included
			}
			all, _, err := tb.ScanRows(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := tb.ScanCols(lo, hi, cols)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffRows(got, projectRows(all, cols)); d != "" {
				t.Fatalf("%s: scan [%d,%d) of columns %v: %s", tb.Schema.Name, lo, hi, cols, d)
			}

			ids := make([]int32, rng.Intn(30))
			for i := range ids {
				ids[i] = int32(rng.Intn(n))
			}
			if len(ids) > 0 && round%2 == 0 {
				ids[0] = int32(n - 1) // a tail row
			}
			all, _, err = tb.FetchRows(ids)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err = tb.FetchCols(ids, cols)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffRows(got, projectRows(all, cols)); d != "" {
				t.Fatalf("%s: fetch %v of columns %v: %s", tb.Schema.Name, ids, cols, d)
			}
		}
		// Not a projection: out of order, repeated, past the schema.
		for _, cols := range [][]int{{1, 0}, {2, 2}, {ncols}, {-1}} {
			if _, _, err := tb.ScanCols(0, 1, cols); err == nil {
				t.Errorf("%s: ScanCols accepted columns %v", tb.Schema.Name, cols)
			}
			if _, _, err := tb.FetchCols([]int32{0}, cols); err == nil {
				t.Errorf("%s: FetchCols accepted columns %v", tb.Schema.Name, cols)
			}
		}
	}
}

// TestDiskStoreConcurrentReaders: 8 goroutines mix random Scan ranges and
// Fetch lists, all-column and projected, over a cache far smaller than the
// table while a writer keeps appending, each result checked against an in-memory twin. Page loads run
// outside the store's mutex, so this is the test -race has to pass; the
// counters must still add up exactly.
func TestDiskStoreConcurrentReaders(t *testing.T) {
	const base, extra, readers, rounds = 3000, 400, 8, 60
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: 1024, CacheBytes: 16 << 10})
	defer cat.Close()
	ds := loadFixture(t, cat, base).be.(*diskStore)
	twin := loadFixture(t, NewCatalog(), base+extra).be
	before := ds.IO()

	var wg sync.WaitGroup
	physSum := make([]int64, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for r := 0; r < rounds; r++ {
				n := ds.NumRows()
				cols := [][]int{nil, {1, 4, 5}, {0}, {}}[r/2%4]
				var got, want [][]value.Value
				var phys int64
				var err error
				if r%2 == 0 {
					lo := rng.Intn(n)
					hi := lo + rng.Intn(min(n-lo, 200)+1)
					got, phys, err = ds.Scan(lo, hi, cols)
					want, _, _ = twin.Scan(lo, hi, cols)
				} else {
					ids := make([]int32, 0, 40)
					for id := rng.Intn(100); id < n && len(ids) < cap(ids); id += 1 + rng.Intn(150) {
						ids = append(ids, int32(id))
					}
					got, phys, err = ds.Fetch(ids, cols)
					want, _, _ = twin.Fetch(ids, cols)
				}
				if err != nil {
					t.Errorf("reader %d round %d: %v", g, r, err)
					return
				}
				if d := diffRows(got, want); d != "" {
					t.Errorf("reader %d round %d: %s", g, r, d)
					return
				}
				physSum[g] += phys
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := base; i < base+extra; i++ {
			if err := ds.Append(fixtureRow(i)); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	io := ds.IO()
	var phys int64
	for _, p := range physSum {
		phys += p
	}
	reads := io.PageReads - before.PageReads
	if reads == 0 || reads != io.CacheMisses-before.CacheMisses {
		t.Errorf("page reads %d, cache misses %d", reads, io.CacheMisses-before.CacheMisses)
	}
	// Every page here is an ordinary 1 KiB one, so Σ physLen is exact two ways.
	if got := io.BytesRead - before.BytesRead; got != phys || got != reads*1024 {
		t.Errorf("BytesRead %d, calls reported %d, %d reads of 1024 bytes", got, phys, reads)
	}
	if io.CacheHits == before.CacheHits {
		t.Error("no cache hits at all")
	}
}

// TestDiskStoreBatchOutlivesEviction: a batch's Bytes and Str cells alias
// its pages' images; evicting the pages (and collecting) must not disturb
// it.
func TestDiskStoreBatchOutlivesEviction(t *testing.T) {
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: 512, CacheBytes: 1024})
	defer cat.Close()
	dt := loadFixture(t, cat, 300)
	mt := loadFixture(t, NewCatalog(), 300)
	held, _, err := dt.ScanRows(0, 12) // more than one page
	if err != nil {
		t.Fatal(err)
	}
	reads := dt.IO().PageReads
	for i := 0; i < 3; i++ {
		if _, _, err := dt.ScanRows(0, 300); err != nil { // ~40 pages through a 2-page cache
			t.Fatal(err)
		}
		runtime.GC()
	}
	if _, _, err := dt.ScanRows(0, 12); err != nil {
		t.Fatal(err)
	}
	if dt.IO().PageReads-reads < 3*30 {
		t.Fatalf("only %d page reads: the held pages were never evicted", dt.IO().PageReads-reads)
	}
	want, _, _ := mt.ScanRows(0, 12)
	if d := diffRows(held, want); d != "" {
		t.Fatalf("held batch changed after its pages were evicted: %s", d)
	}
}

// TestDiskStoreColdScanAllocs: a cold single-page Scan allocates a small
// constant — raw buffer, row offsets, one string, the cache entry and its
// list element, the result and its arena — whether the page holds 3 rows or
// 150, all columns or two.
func TestDiskStoreColdScanAllocs(t *testing.T) {
	coldScanAllocs := func(pageBytes int, cols []int) (allocs float64, rowsPerPage int) {
		// A 1-byte cache admits each page alone and evicts it on the next
		// insert, so alternating between two pages keeps every scan cold.
		cat, _ := diskCatalog(t, BackendConfig{PageBytes: pageBytes, CacheBytes: 1})
		defer cat.Close()
		tb := loadFixture(t, cat, 3*pageBytes/40)
		dir := tb.be.(*diskStore).dir
		i := 0
		allocs = testing.AllocsPerRun(50, func() {
			pm := dir[i%2]
			i++
			if _, phys, err := tb.ScanCols(pm.first, pm.first+pm.nrows, cols); err != nil || phys != pm.physLen {
				t.Fatalf("scan: phys %d, err %v", phys, err)
			}
		})
		return allocs, dir[0].nrows
	}
	for _, cols := range [][]int{nil, {0, 4}} {
		few, fewRows := coldScanAllocs(256, cols)
		many, manyRows := coldScanAllocs(8192, cols)
		if manyRows < 20*fewRows {
			t.Fatalf("fixture: %d vs %d rows per page", fewRows, manyRows)
		}
		if few > 8 || many > few+1 {
			t.Errorf("cold single-page scan of columns %v: %.0f allocs at %d rows/page, %.0f at %d rows/page; want a constant <= 8",
				cols, few, fewRows, many, manyRows)
		}
	}
}

// TestDiskStoreReadAfterClose: a miss that needs the closed file is
// ErrClosed, not a corruption report about a healthy segment.
func TestDiskStoreReadAfterClose(t *testing.T) {
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: 512, CacheBytes: 1024})
	tb := loadFixture(t, cat, 100)
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{
		"scan":  func() error { _, _, err := tb.ScanRows(0, 50); return err }(),
		"fetch": func() error { _, _, err := tb.FetchRows([]int32{3}); return err }(),
		// The handle was captured, then Close won the race with the read.
		"raced": func() error {
			f := tb.be.(*diskStore)
			stale, err := os.Open(f.path)
			if err != nil {
				return err
			}
			stale.Close()
			_, err = loadPage(stale, f.path, f.dir[0], f.ncols)
			return err
		}(),
	} {
		if !errors.Is(err, ErrClosed) || errors.Is(err, ErrCorruptSegment) {
			t.Errorf("%s after Close: %v, want ErrClosed", name, err)
		}
	}
}
