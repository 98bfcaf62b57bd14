package storage

// Tests of filtered reads (Filter): a filtered Scan or Fetch returns exactly
// what the same call unfiltered returns with the predicate then applied in
// Go, reads the same pages, passes the predicate's own errors through
// untyped, leaves no frame pinned on any error, and builds only the rows
// that pass.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/value"
)

// funcFilter is a Filter over a projected row: keep reads only the cells at
// cols. It counts its calls.
type funcFilter struct {
	cols  []int
	keep  func(row []value.Value) (bool, error)
	calls int
}

func (f *funcFilter) Cols() []int { return f.cols }

func (f *funcFilter) Keep(row []value.Value) (bool, error) {
	f.calls++
	return f.keep(row)
}

// applyFilter is the reference: f applied in Go to an unfiltered batch.
func applyFilter(t *testing.T, rows [][]value.Value, f Filter) [][]value.Value {
	t.Helper()
	var out [][]value.Value
	for _, row := range rows {
		ok, err := f.Keep(row)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out = append(out, row)
		}
	}
	return out
}

// cellHash folds the storage identity of cells (sameCell's) into a number.
func cellHash(cells []value.Value) uint64 {
	h := fnv.New64a()
	for _, v := range cells {
		h.Write([]byte{byte(v.K)})
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(v.I)))
		h.Write(binary.BigEndian.AppendUint64(nil, math.Float64bits(v.F)))
		h.Write([]byte(v.S))
		h.Write(v.B)
	}
	return h.Sum64()
}

// randomFilter draws a predicate over a projection whose position 0 is the
// id column: keep nothing, keep everything, keep one row, keep every row
// but those of one sealed page (so that page has no survivors between pages
// that have some), or keep by a hash of a random subset of the projected
// cells — all of them, some, or none.
func randomFilter(rng *rand.Rand, width int, ds *diskStore, n int) *funcFilter {
	some := func() []int {
		cols := []int{}
		for k := 0; k < width; k++ {
			if rng.Intn(2) == 0 {
				cols = append(cols, k)
			}
		}
		return cols
	}
	switch rng.Intn(6) {
	case 0:
		return &funcFilter{cols: some(), keep: func([]value.Value) (bool, error) { return false, nil }}
	case 1:
		return &funcFilter{cols: some(), keep: func([]value.Value) (bool, error) { return true, nil }}
	case 2:
		id := int64(rng.Intn(n))
		return &funcFilter{cols: []int{0}, keep: func(row []value.Value) (bool, error) { return row[0].I == id, nil }}
	case 3:
		pm := ds.dir[1+rng.Intn(len(ds.dir)-2)]
		return &funcFilter{cols: []int{0}, keep: func(row []value.Value) (bool, error) {
			id := int(row[0].I)
			return id < pm.first || id >= pm.first+pm.nrows, nil
		}}
	}
	cols := some()
	if rng.Intn(3) == 0 {
		cols = cols[:0:0]
		for k := 0; k < width; k++ {
			cols = append(cols, k)
		}
	}
	return &funcFilter{cols: cols, keep: func(row []value.Value) (bool, error) {
		cells := make([]value.Value, len(cols))
		for i, k := range cols {
			cells[i] = row[k]
		}
		return cellHash(cells)%3 == 0, nil
	}}
}

// TestFilteredReadsMatchReadThenFilter: over the orders fixture and the
// every-kind table (kindsRows), on a disk segment with an unflushed tail and
// in memory, a filtered Scan or Fetch returns bit for bit the unfiltered
// call's rows that the predicate keeps, and reads exactly the same pages.
// The disk side runs on two identically loaded twins, each with its own
// 2-page cache, given the same calls in the same order — one filtered, one
// not — so their caches stay in step and every call's IOStats must match.
// Projections always hold the id column first; the predicate reads all of
// the projection, some of it or none. Fetch id lists are unsorted and
// repeat ids.
func TestFilteredReadsMatchReadThenFilter(t *testing.T) {
	type twin struct{ filtered, plain *Table }
	tables := map[string]func(cat *Catalog) *Table{
		"orders": func(cat *Catalog) *Table { return loadFixture(t, cat, 203) },
		"kinds": func(cat *Catalog) *Table {
			tb, err := cat.Create(kindsSchema)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range kindsRows(rand.New(rand.NewSource(1))) {
				tb.MustInsert(r)
			}
			return tb
		},
	}
	for name, load := range tables {
		cfg := BackendConfig{PageBytes: 512, CacheBytes: 1024}
		catA, _ := diskCatalog(t, cfg)
		catB, _ := diskCatalog(t, cfg)
		defer catA.Close()
		defer catB.Close()
		disk := twin{load(catA), load(catB)}
		mt := load(NewCatalog())
		ds := disk.filtered.be.(*diskStore)
		if len(ds.tail) == 0 || len(ds.dir) < 5 {
			t.Fatalf("%s: fixture lost its shape: %d sealed pages, %d tail rows", name, len(ds.dir), len(ds.tail))
		}
		n, ncols := mt.NumRows(), len(mt.Schema.Cols)
		rng := rand.New(rand.NewSource(11))
		for round := 0; round < 400; round++ {
			cols := []int{0}
			for c := 1; c < ncols; c++ {
				if rng.Intn(2) == 0 {
					cols = append(cols, c)
				}
			}
			if round%7 == 0 {
				cols = nil // every column
			}
			width := len(cols)
			if cols == nil {
				width = ncols
			}
			f := randomFilter(rng, width, ds, n)
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			if round%5 == 0 {
				lo, hi = 0, n // every page and the tail
			}
			ids := make([]int32, rng.Intn(40))
			for i := range ids {
				ids[i] = int32(rng.Intn(n))
				if i > 0 && rng.Intn(4) == 0 {
					ids[i] = ids[rng.Intn(i)] // a repeat
				}
			}
			if len(ids) > 0 && round%2 == 0 {
				ids[0] = int32(n - 1) // a tail row
			}
			check := func(what string, read func(*Table, Filter) ([][]value.Value, int64, error)) {
				t.Helper()
				beforeA, beforeB := disk.filtered.IO(), disk.plain.IO()
				got, gotPhys, err := read(disk.filtered, f)
				if err != nil {
					t.Fatal(err)
				}
				all, wantPhys, err := read(disk.plain, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := sameCells(got, applyFilter(t, all, f)); d != "" {
					t.Fatalf("%s: disk %s of columns %v: %s", name, what, cols, d)
				}
				ioA, ioB := disk.filtered.IO(), disk.plain.IO()
				ioA.Sub(beforeA)
				ioB.Sub(beforeB)
				if ioA != ioB || gotPhys != wantPhys {
					t.Fatalf("%s: disk %s of columns %v: filtered read %+v (%d bytes), unfiltered %+v (%d bytes)",
						name, what, cols, ioA, gotPhys, ioB, wantPhys)
				}
				got, _, err = read(mt, f)
				if err != nil {
					t.Fatal(err)
				}
				all, _, err = read(mt, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := sameCells(got, applyFilter(t, all, f)); d != "" {
					t.Fatalf("%s: memory %s of columns %v: %s", name, what, cols, d)
				}
			}
			scan := func(tb *Table, f Filter) ([][]value.Value, int64, error) { return tb.ScanCols(lo, hi, cols, f, nil) }
			fetch := func(tb *Table, f Filter) ([][]value.Value, int64, error) { return tb.FetchCols(ids, cols, f, nil) }
			check("scan", scan)
			check("fetch", fetch)
		}
	}
}

// Sub subtracts o from s, the delta between two snapshots.
func (s *IOStats) Sub(o IOStats) {
	s.PageReads -= o.PageReads
	s.CacheHits -= o.CacheHits
	s.CacheMisses -= o.CacheMisses
	s.BytesRead -= o.BytesRead
}

// errKeep is a predicate's own error.
var errKeep = errors.New("predicate failed")

// TestFilteredReadErrors: an error Keep returns comes back from Scan
// and Fetch as itself, not as a *SegmentError; a corrupt cell in the
// predicate's column is a *SegmentError, and Keep never runs on its page.
// Either way no frame stays pinned, on a hit or on a miss.
func TestFilteredReadErrors(t *testing.T) {
	const pageBytes = 512
	cat, dir := diskCatalog(t, BackendConfig{PageBytes: pageBytes, CacheBytes: 4 * pageBytes})
	defer cat.Close()
	tb := loadFixture(t, cat, 300)
	ds := tb.be.(*diskStore)
	failing := &funcFilter{cols: []int{1}, keep: func(row []value.Value) (bool, error) {
		if row[1].K == value.Null {
			return false, errKeep
		}
		return row[1].S != "", nil
	}}
	cols := []int{0, 6} // id, note (a tagged Str column with NULLs)
	pm := ds.dir[2]
	for i := 0; i < 3; i++ { // a miss, then hits
		if _, _, err := tb.ScanCols(pm.first, pm.first+pm.nrows, cols, failing, nil); !errors.Is(err, errKeep) || errors.As(err, new(*SegmentError)) {
			t.Fatalf("scan: %v, want the predicate's own error", err)
		}
		if _, _, err := tb.FetchCols([]int32{int32(pm.first + 3), int32(pm.first + 1)}, cols, failing, nil); !errors.Is(err, errKeep) || errors.As(err, new(*SegmentError)) {
			t.Fatalf("fetch: %v, want the predicate's own error", err)
		}
		if _, err := frameSet(ds); err != nil {
			t.Fatalf("after a predicate error: %v", err)
		}
	}

	// Damage the first cell of page 1's note region, keeping the checksum
	// valid, so the region walk is what finds it.
	pm = ds.dir[1]
	raw := make([]byte, pm.physLen)
	if _, err := ds.f.ReadAt(raw, pm.off); err != nil {
		t.Fatal(err)
	}
	img, err := verifyPage(raw, pageImage{}, ds.path, pm, ds.ncols)
	if err != nil {
		t.Fatal(err)
	}
	note := img.cols[6]
	if note.mode != value.Null {
		t.Fatalf("fixture: note is not a tagged region on page 1")
	}
	raw[pageHeaderLen+note.start] = 0x7f // no such tag
	used := binary.BigEndian.Uint32(raw[4:8])
	binary.BigEndian.PutUint32(raw[8:12], crc32.ChecksumIEEE(raw[pageHeaderLen:pageHeaderLen+used]))
	f, err := os.OpenFile(segPath(dir, "orders"), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(raw, pm.off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, pg := range []int{len(ds.dir) - 1, len(ds.dir) - 2, len(ds.dir) - 3, len(ds.dir) - 4} {
		if _, _, err := tb.ScanCols(ds.dir[pg].first, ds.dir[pg].first+1, nil, nil, nil); err != nil {
			t.Fatal(err) // evicts page 1
		}
	}
	hasNote := &funcFilter{cols: []int{0}, keep: func(row []value.Value) (bool, error) { return row[0].K != value.Null, nil }}
	reads := []func() error{
		func() error { _, _, err := tb.ScanCols(0, pm.first+pm.nrows, []int{6}, hasNote, nil); return err },
		func() error { _, _, err := tb.FetchCols([]int32{int32(pm.first)}, []int{6}, hasNote, nil); return err },
	}
	for _, read := range reads {
		err := read()
		var se *SegmentError
		if !errors.As(err, &se) || !errors.Is(err, ErrCorruptSegment) || errors.Is(err, errKeep) {
			t.Fatalf("read of a corrupt predicate cell: %v, want a *SegmentError", err)
		}
		if _, err := frameSet(ds); err != nil {
			t.Fatalf("after a corrupt predicate cell: %v", err)
		}
	}
	if hasNote.calls != ds.dir[0].nrows {
		t.Fatalf("Keep ran %d times, want only page 0's %d rows", hasNote.calls, ds.dir[0].nrows)
	}
}

// TestFilteredColdScanBytes: a selective cold filtered scan of one 8 KiB
// page builds only its survivors — it allocates at most their cells plus a
// constant (the scratch row, the survivor list, one byte-arena chunk) —
// while the unfiltered scan of the same page builds every row.
func TestFilteredColdScanBytes(t *testing.T) {
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
	dir := tb.be.(*diskStore).dir
	if len(dir) < 2 || dir[0].nrows < 100 {
		t.Fatalf("fixture: %d pages", len(dir))
	}
	const cellBytes, rowBytes = 64, 24 // a value.Value, a row's slice header
	cols := []int{0, 1, 2}
	for _, keep := range []int{0, 1, 4} {
		f := &funcFilter{cols: []int{0}, keep: func(row []value.Value) (bool, error) { return row[0].I%100 < int64(keep), nil }}
		i := 0
		cold := func(f Filter) func() {
			return func() {
				i++
				pm := dir[i%2]
				if _, _, err := tb.ScanCols(pm.first, pm.first+pm.nrows, cols, f, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		cold(f)()
		filtered := allocBytesPerRun(50, cold(f))
		plain := allocBytesPerRun(50, cold(nil))
		survivors := keep * (max(dir[0].nrows, dir[1].nrows)/100 + 1)
		limit := float64(survivors*(len(cols)*cellBytes+rowBytes) + 2*bytesChunk)
		if filtered > limit {
			t.Errorf("cold scan keeping %d of %d rows allocates %.0f bytes, want <= %.0f", survivors, dir[0].nrows, filtered, limit)
		}
		if filtered >= plain/4 {
			t.Errorf("cold scan keeping %d rows allocates %.0f bytes, unfiltered %.0f", survivors, filtered, plain)
		}
	}
}

// TestScanChargesEachPageOnce: a scan charges a sealed page to the read
// that holds its first row, so consecutive reads covering the table charge
// exactly Table.ScanBytes whatever the batch size, unfiltered or through a
// plain filter, and a read starting mid-page does not charge that page
// again. Through a page predicate they charge exactly the pages the zones
// do not rule out: `id >= 100` on the zoned, ascending id skips the pages
// whose last id is below 100. A fetch charges every page it pins.
func TestScanChargesEachPageOnce(t *testing.T) {
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: 1024, CacheBytes: 2048})
	defer cat.Close()
	tb := loadFixture(t, cat, 500)
	ds := tb.be.(*diskStore)
	if len(ds.dir) < 20 || len(ds.tail) == 0 {
		t.Fatalf("fixture: %d pages, %d tail rows", len(ds.dir), len(ds.tail))
	}
	n := tb.NumRows()
	pred := PredRange(0, &value.Value{K: value.Int, I: 100}, nil, true, false)
	filters := []Filter{nil,
		&funcFilter{cols: []int{0}, keep: func(row []value.Value) (bool, error) { return row[0].I%3 == 0, nil }},
		&predFilter{pred: &pred},
	}
	var unskipped int64 // the pages `id >= 100` may match: row id is id
	for _, pm := range ds.dir {
		if pm.first+pm.nrows-1 >= 100 {
			unskipped += pm.physLen
		}
	}
	if unskipped == tb.ScanBytes(nil) {
		t.Fatalf("fixture: no page lies wholly below id 100")
	}
	for _, f := range filters {
		want := tb.ScanBytes(nil)
		if _, ok := f.(PageFilter); ok {
			want = unskipped
		}
		for _, batch := range []int{1, 7, 64, 333, n} {
			var s Scratch
			var phys int64
			for lo := 0; lo < n; lo += batch {
				_, p, err := tb.ScanCols(lo, min(lo+batch, n), []int{0, 4}, f, &s)
				if err != nil {
					t.Fatal(err)
				}
				phys += p
			}
			if phys != want {
				t.Errorf("filter %T, batch %d: consecutive scans charged %d bytes, want %d (the segment is %d)", f, batch, phys, want, tb.ScanBytes(nil))
			}
		}
	}
	pm := ds.dir[3]
	if _, p, _ := tb.ScanCols(pm.first+1, pm.first+pm.nrows+1, nil, nil, nil); p != ds.dir[4].physLen {
		t.Errorf("a scan from mid-page 3 into page 4 charged %d bytes, want page 4's %d", p, ds.dir[4].physLen)
	}
	ids := []int32{int32(pm.first), int32(pm.first + 1), int32(ds.dir[5].first)}
	if _, p, _ := tb.FetchCols(ids, nil, nil, nil); p != pm.physLen+ds.dir[5].physLen {
		t.Errorf("a fetch from pages 3 and 5 charged %d bytes, want %d", p, pm.physLen+ds.dir[5].physLen)
	}
}

// predFilter is a PageFilter that is all page predicate; Keep applies it
// row by row (tail rows, the in-memory backend).
type predFilter struct{ pred *Pred }

func (f *predFilter) Cols() []int { return []int{f.pred.col} }

func (f *predFilter) Keep(row []value.Value) (bool, error) { return f.pred.holds(row[f.pred.col]), nil }

func (f *predFilter) Page() (*Pred, Filter) { return f.pred, nil }
