package storage

// Tests of the disk store's read path — page verification (verifyPage), the
// projected row decoder (appendCols) — and of its read-side lock scope:
// corruption typing at the verifier, projected reads against the projection
// of all-column reads, concurrent readers against an in-memory twin, the
// lifetime of batches read from frames that are then recycled, the per-page
// allocation count and bytes, and the bound on the frames the cache keeps.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
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
	img, err := verifyPage(raw, pageImage{}, "p.seg", pm, ncols)
	if err != nil {
		return nil, err
	}
	b := newRowBatch(pm.nrows, ncols, nil)
	for r := 0; r < pm.nrows; r++ {
		start := len(b.arena)
		if err := img.appendCols(&b, r, nil); err != nil {
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

// TestDecodePageCorruptionTable drives each check of the page layout with a
// hand-built payload whose checksum is valid — the directory, each region
// mode, the frames of a tagged region — and the ones in front of the
// checksum with a damaged header, asserting the offset and reason of each.
// The good page holds two rows of (Int, Bool-or-NULL): column 0 a fixed Int
// region, column 1 a tagged region, since it has a NULL.
func TestDecodePageCorruptionTable(t *testing.T) {
	entry := func(mode value.Kind, width, n int) []byte {
		e := binary.BigEndian.AppendUint16([]byte{byte(mode)}, uint16(width))
		return binary.BigEndian.AppendUint32(e, uint32(n))
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	ints := []byte{0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 8} // 7, 8
	tagged := []byte{0, pageTagBool, 1}                            // NULL, true
	// page lays out two columns: a fixed Int region and a tagged one.
	page := func(intEntry, intRegion, taggedRegion []byte) []byte {
		return cat(intEntry, entry(value.Null, 0, len(taggedRegion)), intRegion, taggedRegion)
	}
	good := page(entry(value.Int, 8, 16), ints, tagged) // directory 14 bytes, regions at 14 and 30
	pm := pageMeta{off: 4096, first: 100, nrows: 2}
	if _, err := decodeAll(pageOf(2, good), pm, 2); err != nil {
		t.Fatalf("the good page fails: %v", err)
	}
	const hdr = 4096 + int64(pageHeaderLen)
	damaged := func(f func(raw []byte) []byte) []byte { return f(pageOf(2, good)) }

	for _, c := range []struct {
		name   string
		raw    []byte
		off    int64
		reason string
	}{
		// The header and checksum.
		{"short header", pageOf(2, good)[:pageHeaderLen-1], 4096, "truncated page header"},
		{"row count differs from directory", pageOf(3, good), 4096, "page header changed shape (3 rows"},
		{"used runs past the image", damaged(func(raw []byte) []byte {
			binary.BigEndian.PutUint32(raw[4:8], uint32(len(raw)))
			return raw
		}), 4096, "page header changed shape"},
		{"checksum", damaged(func(raw []byte) []byte { raw[8]++; return raw }), 4096, "page checksum mismatch"},

		// The directory and the regions it lays out.
		{"directory past the payload", pageOf(2, good[:13]), 4096, "column directory (14 bytes) past end of page"},
		{"region past the payload", pageOf(2, cat(entry(value.Int, 8, 16), entry(value.Null, 0, 4), ints, tagged)), hdr + 7, "column 1: region (4 bytes) past end of page"},
		{"first region past the payload", pageOf(2, page(entry(value.Int, 8, 16), ints[:8], nil)), hdr, "column 0: region (16 bytes) past end of page"},
		{"trailing payload", pageOf(2, cat(good, []byte{0})), 4096, "page has 1 trailing payload bytes"},
		{"unknown mode", pageOf(2, page(entry(9, 8, 16), ints, tagged)), hdr, "column 0: unknown mode 9"},
		{"Str names no fixed mode", pageOf(2, page(entry(value.Str, 8, 16), ints, tagged)), hdr, "column 0: unknown mode 3"},
		{"Int of width 4", pageOf(2, page(entry(value.Int, 4, 8), ints[:8], tagged)), hdr, "column 0: width 4 for mode int"},
		{"Bool of width 8", pageOf(2, page(entry(value.Bool, 8, 16), ints, tagged)), hdr, "column 0: width 8 for mode bool"},
		{"Bytes of width 0", pageOf(2, page(entry(value.Bytes, 0, 0), nil, tagged)), hdr, "column 0: width 0 for mode bytes"},
		{"tagged with a width", pageOf(2, cat(entry(value.Int, 8, 16), entry(value.Null, 1, 3), ints, tagged)), hdr + 7, "column 1: width 1 for mode null"},
		{"fixed region one row long", pageOf(2, page(entry(value.Int, 8, 24), cat(ints, ints[:8]), tagged)), hdr + 14, "column 0: fixed region of 24 bytes, want 2 rows × 8"},
		{"fixed region one byte short", pageOf(2, page(entry(value.Bytes, 3, 5), []byte("abcde"), tagged)), hdr + 14, "column 0: fixed region of 5 bytes, want 2 rows × 3"},

		// The frames of a tagged region.
		{"tagged region one cell short", pageOf(2, page(entry(value.Int, 8, 16), ints, tagged[:1])), hdr + 30, "column 1: region holds 1 cells, page has 2 rows"},
		{"tagged region one cell long", pageOf(2, page(entry(value.Int, 8, 16), ints, cat(tagged, []byte{0}))), hdr + 33, "column 1: region holds more than 2 cells"},
		{"integer cut by the region", pageOf(2, page(entry(value.Int, 8, 16), ints, []byte{0, 1, 0, 0, 0})), hdr + 31, "column 1 row 101: wire: truncated integer"},
		{"bool cut by the region", pageOf(2, page(entry(value.Int, 8, 16), ints, []byte{0, pageTagBool})), hdr + 31, "column 1 row 101: truncated bool"},
		{"unknown tag", pageOf(2, page(entry(value.Int, 8, 16), ints, []byte{0, 99})), hdr + 31, "column 1 row 101: wire: unknown tag 99"},
		{"string runs into the next region", pageOf(2, cat(entry(value.Null, 0, 7), entry(value.Null, 0, 3), []byte{3, 0, 0, 0, 3, 'a', 0}, tagged)), hdr + 14, "column 0 row 100: wire: truncated payload (need 3 bytes)"},
	} {
		_, err := verifyPage(c.raw, pageImage{}, "p.seg", pm, 2)
		if err == nil {
			t.Errorf("%s: decoded cleanly", c.name)
			continue
		}
		se := mustCorrupt(t, err, c.name)
		if se.Offset != c.off || !strings.Contains(se.Reason, c.reason) {
			t.Errorf("%s: offset %d reason %q, want offset %d reason containing %q", c.name, se.Offset, se.Reason, c.off, c.reason)
		}
	}

	// A header that lies about the row count cannot size the allocation, in
	// either mode: a fixed region's length must be rows × width, and a tagged
	// region's frames bound its offsets.
	huge := pageMeta{off: 4096, nrows: 1 << 31}
	for mode, payload := range map[string][]byte{
		"fixed":  good,
		"tagged": page(entry(value.Null, 0, 18), bytes.Repeat([]byte{0}, 18), tagged),
	} {
		verify := func() {
			if _, err := verifyPage(pageOf(1<<31, payload), pageImage{}, "p.seg", huge, 2); err == nil {
				t.Fatalf("%s: 2^31-row header over a %d-byte payload verified cleanly", mode, len(payload))
			} else {
				mustCorrupt(t, err, "huge row count")
			}
		}
		if n := allocBytesPerRun(10, verify); n > 4096 {
			t.Errorf("%s: verifying a 2^31-row header allocates %.0f bytes", mode, n)
		}
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

// appendRow frames every cell of a row as a tagged page cell: it fails on
// a kind no page holds.
func appendRow(dst []byte, row []value.Value) ([]byte, error) {
	var err error
	for _, v := range row {
		if dst, err = appendCell(dst, v); err != nil {
			return nil, err
		}
	}
	return dst, nil
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
			got, _, err := tb.ScanCols(lo, hi, cols, nil, nil)
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
			got, _, err = tb.FetchCols(ids, cols, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffRows(got, projectRows(all, cols)); d != "" {
				t.Fatalf("%s: fetch %v of columns %v: %s", tb.Schema.Name, ids, cols, d)
			}
		}
		// Not a projection: out of order, repeated, past the schema.
		for _, cols := range [][]int{{1, 0}, {2, 2}, {ncols}, {-1}} {
			if _, _, err := tb.ScanCols(0, 1, cols, nil, nil); err == nil {
				t.Errorf("%s: ScanCols accepted columns %v", tb.Schema.Name, cols)
			}
			if _, _, err := tb.FetchCols([]int32{0}, cols, nil, nil); err == nil {
				t.Errorf("%s: FetchCols accepted columns %v", tb.Schema.Name, cols)
			}
		}
	}
}

// TestDiskStoreConcurrentReaders: 8 goroutines mix random Scan ranges and
// Fetch lists, all-column and projected, over a cache far smaller than the
// table while a writer keeps appending, each result checked against an
// in-memory twin when it arrives and again after every reader has joined.
// Page loads run outside the store's mutex and evicted frames are recycled,
// so this is the test -race has to pass: a frame reused while a reader still
// decodes from it, or a returned cell that points into a reused frame, shows
// as a race or as a held batch that changed. The counters must still add up
// exactly.
func TestDiskStoreConcurrentReaders(t *testing.T) {
	const base, extra, readers, rounds = 3000, 400, 8, 60
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: 1024, CacheBytes: 16 << 10})
	defer cat.Close()
	ds := loadFixture(t, cat, base).be.(*diskStore)
	twin := loadFixture(t, NewCatalog(), base+extra).be
	before := ds.IO()

	type heldBatch struct{ got, want [][]value.Value }
	var wg sync.WaitGroup
	physSum := make([]int64, readers)
	held := make([][]heldBatch, readers)
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
					got, phys, err = ds.Scan(lo, hi, cols, nil, nil)
					want, _, _ = twin.Scan(lo, hi, cols, nil, nil)
				} else {
					ids := make([]int32, 0, 40)
					for id := rng.Intn(100); id < n && len(ids) < cap(ids); id += 1 + rng.Intn(150) {
						ids = append(ids, int32(id))
					}
					got, phys, err = ds.Fetch(ids, cols, nil, nil)
					want, _, _ = twin.Fetch(ids, cols, nil, nil)
				}
				if err != nil {
					t.Errorf("reader %d round %d: %v", g, r, err)
					return
				}
				if d := diffRows(got, want); d != "" {
					t.Errorf("reader %d round %d: %s", g, r, d)
					return
				}
				held[g] = append(held[g], heldBatch{got, want})
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

	for g := range held {
		for r, h := range held[g] {
			if d := diffRows(h.got, h.want); d != "" {
				t.Fatalf("reader %d round %d: held batch changed after the readers joined: %s", g, r, d)
			}
		}
	}
	io := ds.IO()
	var phys int64
	for _, p := range physSum {
		phys += p
	}
	reads := io.PageReads - before.PageReads
	if reads == 0 || reads != io.CacheMisses-before.CacheMisses {
		t.Errorf("page reads %d, cache misses %d", reads, io.CacheMisses-before.CacheMisses)
	}
	// Every page here is an ordinary 1 KiB one: the medium read a page per
	// miss, and the calls reported whole pages, hit or miss, none they did
	// not pin (a scan charges a page only to the read holding its first row,
	// which TestScanChargesEachPageOnce pins exactly).
	pins := reads + io.CacheHits - before.CacheHits
	if got := io.BytesRead - before.BytesRead; got != reads*1024 || phys%1024 != 0 || phys > pins*1024 {
		t.Errorf("BytesRead %d, calls reported %d, %d reads and %d pins of 1024 bytes", got, phys, reads, pins)
	}
	if io.CacheHits == before.CacheHits {
		t.Error("no cache hits at all")
	}
}

// frameBuffers returns the first byte of every page frame the cache holds,
// resident or free: the buffers a miss may read into next.
func frameBuffers(ds *diskStore) map[*byte]bool {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	out := make(map[*byte]bool)
	for el := ds.cache.ll.Front(); el != nil; el = el.Next() {
		out[&el.Value.(*cachedPage).raw[:1][0]] = true
	}
	for _, p := range ds.cache.free {
		out[&p.raw[:1][0]] = true
	}
	return out
}

// TestDiskStoreBatchOutlivesEviction: batches from Scan and Fetch, all
// columns and projected, stay intact after their pages are evicted and the
// frames those pages were read into are reused for other pages.
func TestDiskStoreBatchOutlivesEviction(t *testing.T) {
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: 512, CacheBytes: 1024})
	defer cat.Close()
	dt := loadFixture(t, cat, 300)
	mt := loadFixture(t, NewCatalog(), 300)
	ds := dt.be.(*diskStore)

	ids := []int32{11, 0, 5, 7, 290}
	reads := func(tb *Table) [][][]value.Value {
		var out [][][]value.Value
		for _, cols := range [][]int{nil, {1, 4}, {4}} {
			scan, _, err := tb.ScanCols(0, 12, cols, nil, nil) // more than one page
			if err != nil {
				t.Fatal(err)
			}
			fetch, _, err := tb.FetchCols(ids, cols, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, scan, fetch)
		}
		return out
	}
	held := reads(dt)
	heldFrames := frameBuffers(ds)
	pageReads := dt.IO().PageReads
	for i := 0; i < 3; i++ {
		if _, _, err := dt.ScanRows(0, 300); err != nil { // ~40 pages through a 2-page cache
			t.Fatal(err)
		}
		runtime.GC()
	}
	if _, _, err := dt.ScanRows(0, 12); err != nil {
		t.Fatal(err)
	}
	if dt.IO().PageReads-pageReads < 3*30 {
		t.Fatalf("only %d page reads: the held pages were never evicted", dt.IO().PageReads-pageReads)
	}
	reused := 0
	for b := range frameBuffers(ds) {
		if heldFrames[b] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no frame the held batches were read from was reused")
	}
	for i, want := range reads(mt) {
		if d := diffRows(held[i], want); d != "" {
			t.Fatalf("held batch %d changed after its frames were reused: %s", i, d)
		}
	}
}

// coldScan returns a function that scans cols of one of two pages in turn:
// with a 1-byte cache each page is admitted alone and evicted by the next
// insert, so every call is a miss, and in steady state it reads into the
// frame the other page left on the free list. warm rescans the page the
// last call read, a hit, which reports the page's bytes all the same.
func coldScan(t *testing.T, tb *Table, cols []int) (cold, warm func()) {
	dir := tb.be.(*diskStore).dir
	i := 0
	scan := func(pm pageMeta, phys int64) {
		if _, got, err := tb.ScanCols(pm.first, pm.first+pm.nrows, cols, nil, nil); err != nil || got != phys {
			t.Fatalf("scan: phys %d, want %d, err %v", got, phys, err)
		}
	}
	cold = func() { i++; scan(dir[i%2], dir[i%2].physLen) }
	warm = func() { scan(dir[i%2], dir[i%2].physLen) }
	return cold, warm
}

// TestDiskStoreColdScanAllocs: in steady state a cold single-page Scan
// allocates a small constant — one string, the list element, the result,
// its value arena and one byte-arena chunk; the page's buffer and row
// offsets come from a recycled frame — whether the page holds 3 rows or 150,
// all columns or two.
func TestDiskStoreColdScanAllocs(t *testing.T) {
	coldScanAllocs := func(pageBytes int, cols []int) (allocs float64, rowsPerPage int) {
		cat, _ := diskCatalog(t, BackendConfig{PageBytes: pageBytes, CacheBytes: 1})
		defer cat.Close()
		tb := loadFixture(t, cat, 3*pageBytes/40)
		cold, _ := coldScan(t, tb, cols)
		cold() // the first two misses allocate the two frames
		cold()
		return testing.AllocsPerRun(50, cold), tb.be.(*diskStore).dir[0].nrows
	}
	for _, cols := range [][]int{nil, {0, 4}} {
		few, fewRows := coldScanAllocs(256, cols)
		many, manyRows := coldScanAllocs(8192, cols)
		if manyRows < 20*fewRows {
			t.Fatalf("fixture: %d vs %d rows per page", fewRows, manyRows)
		}
		if few > 5 || many > few {
			t.Errorf("cold single-page scan of columns %v: %.0f allocs at %d rows/page, %.0f at %d rows/page; want a constant <= 5",
				cols, few, fewRows, many, manyRows)
		}
	}
}

// allocBytesPerRun is the mean number of heap bytes f allocates per call.
func allocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestDiskStoreColdScanBytes: in steady state a miss no longer allocates a
// page. A cold single-page scan of no column (COUNT(*)'s read) allocates less
// than one page size in all, and for any projection a cold scan allocates
// less than one page size more than a warm scan of the same page. The table
// has the encrypted tables' column kinds, Int and Bytes: a page with Str
// cells also pays the decoder's one string copy of its payload, which Str
// cells alias.
func TestDiskStoreColdScanBytes(t *testing.T) {
	const pageBytes = 8192
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: pageBytes, CacheBytes: 1})
	defer cat.Close()
	tb, err := cat.Create(Schema{Name: "enc", Cols: []Column{{Name: "id", Type: TInt}, {Name: "a", Type: TBytes}, {Name: "b", Type: TBytes}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		tb.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewBytes(make([]byte, 16+i%8)), value.NewBytes([]byte{byte(i), byte(i >> 8)})})
	}
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	if dir := tb.be.(*diskStore).dir; len(dir) < 2 || dir[0].physLen != pageBytes || dir[1].physLen != pageBytes {
		t.Fatalf("fixture: want two ordinary pages, have %d", len(dir))
	}
	for _, cols := range [][]int{{}, {1}, {0, 2}, nil} {
		cold, warm := coldScan(t, tb, cols)
		cold()
		coldBytes := allocBytesPerRun(50, cold)
		warmBytes := allocBytesPerRun(50, warm)
		if len(cols) == 0 && cols != nil && coldBytes >= pageBytes {
			t.Errorf("cold scan of no column allocates %.0f bytes, want < %d", coldBytes, pageBytes)
		}
		if coldBytes-warmBytes >= pageBytes {
			t.Errorf("cold scan of columns %v allocates %.0f bytes, a warm one %.0f: a miss costs a page or more", cols, coldBytes, warmBytes)
		}
	}
}

// TestDiskStoreFrameBound: while readers churn a cache far smaller than the
// table, the frames it keeps — resident bytes plus the free list — never
// exceed the capacity plus maxFreeFrames pages; nor when many more pinned
// pages than that are evicted and then all let go at once.
func TestDiskStoreFrameBound(t *testing.T) {
	const pageBytes, cacheBytes = 512, 4 * 512
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: pageBytes, CacheBytes: cacheBytes})
	defer cat.Close()
	ds := loadFixture(t, cat, 600).be.(*diskStore)
	check := func() {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		kept := ds.cache.used + int64(len(ds.cache.free))*pageBytes
		if limit := int64(cacheBytes + maxFreeFrames*pageBytes); kept > limit {
			t.Errorf("cache keeps %d bytes (%d resident, %d free frames), limit %d", kept, ds.cache.used, len(ds.cache.free), limit)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < 200; r++ {
				lo := rng.Intn(ds.NumRows())
				if _, _, err := ds.Scan(lo, min(lo+40, ds.NumRows()), nil, nil, nil); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := ds.Fetch([]int32{int32(rng.Intn(ds.NumRows()))}, []int{4}, nil, nil); err != nil {
					t.Error(err)
					return
				}
				check()
			}
		}(g)
	}
	wg.Wait()
	check()
	if ds.IO().PageReads < 200 {
		t.Fatalf("only %d page reads: the cache never churned", ds.IO().PageReads)
	}

	c := newBlockCache(cacheBytes, pageBytes)
	var pinned []*cachedPage
	for idx := 0; idx < 3*maxFreeFrames; idx++ {
		pinned = append(pinned, c.put(idx, c.frame(pageBytes), pageBytes))
	}
	for _, p := range pinned {
		c.release(p)
	}
	if kept, limit := c.used+int64(len(c.free))*pageBytes, int64(cacheBytes+maxFreeFrames*pageBytes); kept > limit || len(c.free) == 0 {
		t.Errorf("after a burst of releases the cache keeps %d bytes (%d free frames), limit %d", kept, len(c.free), limit)
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
			_, err = loadPage(stale, make([]byte, f.dir[0].physLen), pageImage{}, f.path, f.dir[0], f.ncols)
			return err
		}(),
	} {
		if !errors.Is(err, ErrClosed) || errors.Is(err, ErrCorruptSegment) {
			t.Errorf("%s after Close: %v, want ErrClosed", name, err)
		}
	}
}

// sameCell is storage identity: the same kind and the same bits, so a NaN
// equals itself and -0.0 differs from 0.0.
func sameCell(a, b value.Value) bool {
	switch {
	case a.K != b.K:
		return false
	case a.K == value.Float:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case a.K == value.Str:
		return a.S == b.S
	case a.K == value.Bytes:
		return bytes.Equal(a.B, b.B)
	}
	return a.I == b.I
}

// sameCells describes the first cell where two batches differ ("" if none).
func sameCells(got, want [][]value.Value) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d: %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameCell(got[i][j], want[i][j]) {
				return fmt.Sprintf("row %d cell %d: %#v, want %#v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return ""
}

// wantMode is the mode a column of these cells must get: their kind when all
// are non-NULL and of one fixed-width kind and width — 8-byte Int, Date and
// Float, 1-byte Bool, Bytes of one length from 1 to 65 535 — else tagged.
func wantMode(cells []value.Value) value.Kind {
	width := func(v value.Value) int {
		switch v.K {
		case value.Int, value.Date, value.Float:
			return 8
		case value.Bool:
			return 1
		case value.Bytes:
			if n := len(v.B); n >= 1 && n <= 65535 {
				return n
			}
		}
		return 0
	}
	for _, v := range cells {
		if width(v) == 0 || v.K != cells[0].K || width(v) != width(cells[0]) {
			return value.Null
		}
	}
	return cells[0].K
}

// kindsSchema is a table of every kind a page column holds (kindsRows).
var kindsSchema = Schema{Name: "kinds", Cols: []Column{
	{Name: "id", Type: TInt}, {Name: "ok", Type: TBool}, {Name: "day", Type: TDate},
	{Name: "x", Type: TFloat}, {Name: "name", Type: TStr}, {Name: "ct", Type: TBytes},
	{Name: "empty", Type: TBytes}, {Name: "var", Type: TBytes}, {Name: "either", Type: TInt},
}}

// kindsRows are 300 seeded kindsSchema rows: NULL, Bool, Int, Date, Float
// (NaN and -0.0 among them), Str, empty Bytes, Bytes of one length and of
// mixed lengths, a column of mixed kinds, and row 150's one Bytes cell over
// 65 535 bytes.
func kindsRows(rng *rand.Rand) [][]value.Value {
	maybeNull := func(v value.Value) value.Value {
		if rng.Intn(12) == 0 {
			return value.NewNull()
		}
		return v
	}
	ct := func(n int) value.Value {
		b := make([]byte, n)
		rng.Read(b)
		return value.NewBytes(b)
	}
	rows := make([][]value.Value, 300)
	for i := range rows {
		x := value.NewFloat(rng.NormFloat64())
		switch rng.Intn(8) {
		case 0:
			x = value.NewFloat(math.NaN())
		case 1:
			x = value.NewFloat(math.Copysign(0, -1))
		}
		c := ct(16)
		if rng.Intn(20) == 0 {
			c = ct(17) // a page with one of these has mixed lengths
		}
		either := value.NewInt(rng.Int63())
		if rng.Intn(10) == 0 {
			either = value.NewDate(int64(rng.Intn(20000))) // same width, another kind
		}
		rows[i] = []value.Value{
			value.NewInt(int64(i)), maybeNull(value.NewBool(rng.Intn(2) == 0)), value.NewDate(int64(rng.Intn(20000))),
			maybeNull(x), value.NewStr(fmt.Sprint("n", rng.Intn(1000))), c,
			value.NewBytes([]byte{}), ct(1 + rng.Intn(3)), either,
		}
		if i == 150 {
			rows[i][5] = ct(70000)
		}
	}
	return rows
}

// TestPageColumnModesRoundTrip: over 512-byte pages holding every kind — NULL,
// Bool, Int, Date, Float (NaN and -0.0 among them), Str, empty Bytes, Bytes
// of one length and of mixed lengths, columns of mixed kinds, and one Bytes
// cell over 65 535 bytes alone on an oversized page — each column of each
// sealed page gets a fixed region exactly when it is NULL-free and of one
// fixed-width kind and width there, and every projected Scan and Fetch
// returns bit for bit what the in-memory backend does.
func TestPageColumnModesRoundTrip(t *testing.T) {
	schema := kindsSchema
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cat, _ := diskCatalog(t, BackendConfig{PageBytes: 512, CacheBytes: 2048})
		dt, err := cat.Create(schema)
		if err != nil {
			t.Fatal(err)
		}
		mt := NewTable(schema)
		for _, r := range kindsRows(rng) {
			dt.MustInsert(r)
			mt.MustInsert(append([]value.Value(nil), r...))
		}
		all, _, err := mt.ScanRows(0, mt.NumRows())
		if err != nil {
			t.Fatal(err)
		}

		// The mode of every column of every sealed page.
		pages := sealedPages(t, dt)
		oversized := 0
		modes := make([]map[value.Kind]bool, len(schema.Cols)) // the modes each column got
		for _, p := range pages {
			if p.pm.physLen > 512 {
				oversized++
				if p.pm.nrows != 1 || p.pm.first != 150 {
					t.Fatalf("seed %d: oversized page holds rows [%d,%d)", seed, p.pm.first, p.pm.first+p.pm.nrows)
				}
			}
			for c := 0; c < len(schema.Cols); c++ {
				cells := make([]value.Value, p.pm.nrows)
				for r := range cells {
					cells[r] = all[p.pm.first+r][c]
				}
				mode := value.Kind(p.raw[pageHeaderLen+c*colEntryLen])
				if want := wantMode(cells); mode != want {
					t.Fatalf("seed %d: page of rows [%d,%d) column %s has mode %v, want %v",
						seed, p.pm.first, p.pm.first+p.pm.nrows, schema.Cols[c].Name, mode, want)
				}
				if modes[c] == nil {
					modes[c] = make(map[value.Kind]bool)
				}
				modes[c][mode] = true
			}
		}
		if oversized != 1 {
			t.Fatalf("seed %d: %d oversized pages", seed, oversized)
		}
		for _, c := range []int{1, 3, 5, 8} { // ok, x, ct, either
			if len(modes[c]) != 2 {
				t.Fatalf("seed %d: column %s got only the modes %v", seed, schema.Cols[c].Name, modes[c])
			}
		}

		// Every projection, from disk and from memory.
		n := dt.NumRows()
		for round := 0; round < 200; round++ {
			var cols []int // round 0: every column
			for c := 0; c < len(schema.Cols) && round > 0; c++ {
				if rng.Intn(2) == 0 {
					cols = append(cols, c)
				}
			}
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			got, _, err := dt.ScanCols(lo, hi, cols, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, _, _ := mt.ScanCols(lo, hi, cols, nil, nil)
			if d := sameCells(got, want); d != "" {
				t.Fatalf("seed %d: scan [%d,%d) of columns %v: %s", seed, lo, hi, cols, d)
			}
			ids := []int32{150}
			for len(ids) < 1+rng.Intn(20) {
				ids = append(ids, int32(rng.Intn(n)))
			}
			got, _, err = dt.FetchCols(ids, cols, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, _, _ = mt.FetchCols(ids, cols, nil, nil)
			if d := sameCells(got, want); d != "" {
				t.Fatalf("seed %d: fetch %v of columns %v: %s", seed, ids, cols, d)
			}
		}
		if err := cat.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// frameSet is every frame the cache keeps, resident or free, with an error
// for a kept frame that a reader still pins or for more kept bytes than the
// capacity plus maxFreeFrames pages.
func frameSet(ds *diskStore) (map[*cachedPage]bool, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	out := make(map[*cachedPage]bool)
	for el := ds.cache.ll.Front(); el != nil; el = el.Next() {
		out[el.Value.(*cachedPage)] = true
	}
	for _, p := range ds.cache.free {
		out[p] = true
	}
	for p := range out {
		if p.pins != 0 {
			return nil, fmt.Errorf("page %d's frame still has %d pins", p.idx, p.pins)
		}
	}
	if kept, limit := ds.cache.used+int64(len(ds.cache.free)*ds.pageSize), ds.cache.cap+int64(maxFreeFrames*ds.pageSize); kept > limit {
		return nil, fmt.Errorf("cache keeps %d bytes, limit %d", kept, limit)
	}
	return out, nil
}

// TestFailedPageReadUnpins: a page read that fails — a typed corruption
// error from a byte flipped in the segment file, or ErrClosed — unpins the
// frame it took and hands it back, filtered or not: afterwards no kept frame
// has a pin, the failed read lost none of them, and scans that follow keep
// resident plus free frames within the capacity plus maxFreeFrames pages. A
// filtered read whose predicate fails leaves no pin either, on a miss or a
// hit. A fetch whose ids run into the corrupt page partway fails the same
// way and leaves every frame unpinned.
func TestFailedPageReadUnpins(t *testing.T) {
	const pageBytes = 512
	cat, dir := diskCatalog(t, BackendConfig{PageBytes: pageBytes, CacheBytes: 4 * pageBytes})
	tb := loadFixture(t, cat, 300)
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	ds := tb.be.(*diskStore)
	if len(ds.dir) < 12 {
		t.Fatalf("fixture: %d sealed pages", len(ds.dir))
	}
	scanIf := func(page int, f Filter) error {
		pm := ds.dir[page]
		_, _, err := tb.ScanCols(pm.first, pm.first+pm.nrows, []int{0, 4}, f, nil)
		return err
	}
	scan := func(page int) error { return scanIf(page, nil) }
	odd := &funcFilter{cols: []int{0}, keep: func(row []value.Value) (bool, error) { return row[0].I%2 == 1, nil }}
	// failAndCheck reads page, which must miss and fail as isWant says, and
	// checks that it handed its frame back.
	failAndCheck := func(page int, f Filter, isWant func(error) bool) {
		t.Helper()
		before, err := frameSet(ds)
		if err != nil {
			t.Fatal(err)
		}
		if err := scanIf(page, f); !isWant(err) {
			t.Fatalf("read of page %d: %v", page, err)
		}
		after, err := frameSet(ds)
		if err != nil {
			t.Fatalf("after a failed read of page %d: %v", page, err)
		}
		if !reflect.DeepEqual(after, before) {
			t.Fatalf("a failed read of page %d changed the kept frames from %d to %d", page, len(before), len(after))
		}
	}

	// Warm the cache so the free list holds a frame, then corrupt page 1.
	for page := range ds.dir {
		if err := scan(page); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.OpenFile(segPath(dir, "orders"), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, ds.dir[1].off+pageHeaderLen+40); err != nil {
		t.Fatal(err)
	}
	f.Close()
	corrupt := func(err error) bool {
		var se *SegmentError
		return errors.As(err, &se) && errors.Is(err, ErrCorruptSegment)
	}
	for round := 0; round < 3*maxFreeFrames; round++ {
		failAndCheck(1, nil, corrupt)
		failAndCheck(1, odd, corrupt)
		for page := 2; page < len(ds.dir); page += 1 + round%3 { // evict, recycle, reuse
			if err := scan(page); err != nil {
				t.Fatal(err)
			}
			if _, err := frameSet(ds); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A fetch whose ids run from page 0 through the corrupt page 1 into page
	// 2 fails on page 1 and leaves no frame pinned, filtered or not.
	p0, p1, p2 := ds.dir[0], ds.dir[1], ds.dir[2]
	ids := []int32{int32(p0.first + p0.nrows - 1), int32(p1.first), int32(p1.first + 1), int32(p2.first)}
	for _, f := range []Filter{nil, odd} {
		if _, _, err := tb.FetchCols(ids, []int{0, 4}, f, nil); !corrupt(err) {
			t.Fatalf("fetch across the corrupt page: %v", err)
		}
		if _, err := frameSet(ds); err != nil {
			t.Fatalf("after a fetch across the corrupt page: %v", err)
		}
	}

	failing := &funcFilter{cols: []int{0}, keep: func(row []value.Value) (bool, error) { return false, errKeep }}
	for _, page := range []int{2, 2, 5} { // the second read of page 2 is a hit
		if err := scanIf(page, failing); !errors.Is(err, errKeep) || corrupt(err) {
			t.Fatalf("filtered read of page %d: %v, want the predicate's error", page, err)
		}
		if _, err := frameSet(ds); err != nil {
			t.Fatalf("after a predicate error on page %d: %v", page, err)
		}
	}

	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	closed := func(err error) bool { return errors.Is(err, ErrClosed) }
	for page, n := 0, 0; n < 4; page++ {
		if _, resident := ds.cache.pages[page]; !resident {
			failAndCheck(page, []Filter{nil, odd}[n%2], closed)
			n++
		}
	}
}
