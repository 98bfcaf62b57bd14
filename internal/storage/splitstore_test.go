package storage

// Tests of tables split by column into a hot and a cold segment
// (splitStore): every read returns what the in-memory table and a
// one-segment disk table return, and charges the segments it reads.

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// splitTwins loads the orders fixture three ways: split on disk (fixtureCold
// cold), one disk segment, and in memory; the disk tables keep an unflushed
// tail.
func splitTwins(t *testing.T, n int) (split, one, mem *Table) {
	t.Helper()
	cfg := BackendConfig{PageBytes: 512, CacheBytes: 1024}
	catS, _ := diskCatalog(t, cfg)
	catO, _ := diskCatalog(t, cfg)
	t.Cleanup(func() { catS.Close(); catO.Close() })
	split = loadSplitFixture(t, catS, n, fixtureCold)
	one = loadFixture(t, catO, n)
	mem = loadFixture(t, NewCatalog(), n)
	ss, ok := split.be.(*splitStore)
	if !ok || len(ss.hot.tail) == 0 || len(ss.cold.tail) == 0 || len(ss.hot.dir) < 3 || len(ss.cold.dir) < 3 {
		t.Fatal("fixture lost its shape: want two segments, each with sealed pages and a tail")
	}
	return split, one, mem
}

// TestSplitStoreMatchesMem: over random projections (nil, empty, all hot,
// mixed, all cold), filters (randomFilter's, a page predicate on a hot or a
// cold column), ranges and id lists with repeats and tail rows, with and
// without a Scratch, a split table's Scan and Fetch return what the
// in-memory and the one-segment tables return.
func TestSplitStoreMatchesMem(t *testing.T) {
	split, one, mem := splitTwins(t, 300)
	hotDS := split.be.(*splitStore).hot
	n, ncols := mem.NumRows(), len(mem.Schema.Cols)
	rng := rand.New(rand.NewSource(5))
	var scratch Scratch
	for round := 0; round < 400; round++ {
		var cols []int
		switch round % 6 {
		case 0: // nil: every column
		case 1:
			cols = []int{}
		case 2:
			cols = []int{0, 2, 3, 5} // every hot column
		default:
			cols = []int{0}
			for c := 1; c < ncols; c++ {
				if rng.Intn(2) == 0 {
					cols = append(cols, c)
				}
			}
		}
		width := len(cols)
		if cols == nil {
			width = ncols
		}
		var f Filter
		switch k := rng.Intn(4); {
		case width > 0 && k < 2:
			f = randomFilter(rng, width, hotDS, n)
		case width > 0 && k == 2:
			// A page predicate on the projection's first or last cell:
			// id (hot) or whatever the last column is.
			at := 0
			if rng.Intn(2) == 0 {
				at = width - 1
			}
			pred := PredIn(at, value.NewInt(7), value.NewStr("west"), value.NewBool(true))
			f = &predFilter{pred: &pred}
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		ids := make([]int32, rng.Intn(40))
		for i := range ids {
			ids[i] = int32(rng.Intn(n))
			if i > 0 && rng.Intn(4) == 0 {
				ids[i] = ids[rng.Intn(i)]
			}
		}
		if len(ids) > 0 {
			ids[0] = int32(n - 1) // a tail row
		}
		var s *Scratch
		if round%2 == 1 {
			s = &scratch
		}
		reads := map[string]func(tb *Table, s *Scratch) ([][]value.Value, int64, error){
			"scan":  func(tb *Table, s *Scratch) ([][]value.Value, int64, error) { return tb.ScanCols(lo, hi, cols, f, s) },
			"fetch": func(tb *Table, s *Scratch) ([][]value.Value, int64, error) { return tb.FetchCols(ids, cols, f, s) },
		}
		for what, read := range reads {
			want, _, err := read(mem, nil)
			if err != nil {
				t.Fatal(err)
			}
			for name, tb := range map[string]*Table{"split": split, "one segment": one} {
				got, _, err := read(tb, s)
				if err != nil {
					t.Fatalf("%s %s of %v: %v", name, what, cols, err)
				}
				if d := sameCells(got, want); d != "" {
					t.Fatalf("round %d: %s %s of columns %v (filter %T): %s", round, name, what, cols, f, d)
				}
			}
		}
	}
}

// TestSplitStoreCharging: consecutive scans of a split table charge exactly
// ScanBytes of their columns — the hot segment's size when every column is
// hot, the cold one's when every column is cold, both when mixed — and a
// read of hot columns pins no cold page, hit or miss, at any batch size.
func TestSplitStoreCharging(t *testing.T) {
	split, _, _ := splitTwins(t, 300)
	ss := split.be.(*splitStore)
	hotSize, coldSize := ss.hot.Size(nil), ss.cold.Size(nil)
	n := split.NumRows()
	for _, c := range []struct {
		name string
		cols []int
		want int64
	}{
		{"hot", []int{0, 2, 5}, hotSize},
		{"no column", []int{}, hotSize},
		{"cold", []int{1, 6}, coldSize},
		{"mixed", []int{0, 4}, hotSize + coldSize},
		{"every column", nil, hotSize + coldSize},
	} {
		if got := split.ScanBytes(c.cols); got != c.want {
			t.Errorf("%s: ScanBytes %d, want %d", c.name, got, c.want)
		}
		for _, batch := range []int{1, 7, 64, n} {
			var phys int64
			var s Scratch
			for lo := 0; lo < n; lo += batch {
				_, p, err := split.ScanCols(lo, min(lo+batch, n), c.cols, nil, &s)
				if err != nil {
					t.Fatal(err)
				}
				phys += p
			}
			if phys != c.want {
				t.Errorf("%s, batch %d: consecutive scans charged %d bytes, want %d", c.name, batch, phys, c.want)
			}
		}
	}

	// Hot reads — scans, fetches, filtered by a page predicate — leave the
	// cold segment's counters where they were.
	before := split.ColdIO()
	hot := []int{0, 3}
	odd := &funcFilter{cols: []int{0}, keep: func(row []value.Value) (bool, error) { return row[0].I%2 == 1, nil }}
	if _, _, err := split.ScanCols(0, n, hot, odd, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := split.FetchCols([]int32{3, 90, 91, 250, int32(n - 1)}, hot, nil, nil); err != nil {
		t.Fatal(err)
	}
	five := PredIn(0, value.NewInt(5))
	if _, _, err := split.ScanCols(0, n, hot, &predFilter{pred: &five}, nil); err != nil {
		t.Fatal(err)
	}
	if after := split.ColdIO(); after != before {
		t.Errorf("hot reads moved the cold segment's counters: %+v → %+v", before, after)
	}
	if _, _, err := split.ScanCols(0, n, []int{0, 6}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if after := split.ColdIO(); after.CacheHits+after.CacheMisses == before.CacheHits+before.CacheMisses {
		t.Error("a read of a cold column pinned no cold page")
	}
}

// TestSplitStoreClosed: after Close, reads that need either segment file
// fail with ErrClosed — hot, cold and mixed — and an unknown column to
// split off is refused at creation.
func TestSplitStoreClosed(t *testing.T) {
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: 512, CacheBytes: 512})
	tb := loadSplitFixture(t, cat, 300, fixtureCold)
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]int{{0, 2}, {1, 6}, nil} {
		if _, _, err := tb.ScanCols(0, tb.NumRows(), cols, nil, nil); !errors.Is(err, ErrClosed) {
			t.Errorf("scan of %v after Close: %v, want ErrClosed", cols, err)
		}
	}
	if _, err := NewCatalogWith(BackendConfig{Kind: BackendDisk, Dir: t.TempDir()}).CreateSplit(fixtureSchema(), []string{"nope"}, nil); err == nil {
		t.Error("CreateSplit accepted a column the schema does not have")
	}
}
