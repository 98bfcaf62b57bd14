package storage

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"

	"repro/internal/value"
)

// lazySchema is a table whose "v" column holds NULLs and values of several
// kind classes, and whose "n" column is numeric with NULLs.
func lazySchema() Schema {
	return Schema{Name: "lazy", Cols: []Column{
		{Name: "id", Type: TInt},
		{Name: "v", Type: TStr},
		{Name: "n", Type: TInt},
	}}
}

func lazyRow(i int) []value.Value {
	var v value.Value
	switch i % 5 {
	case 0:
		v = value.NewNull()
	case 1:
		v = value.NewInt(int64(i % 7))
	case 2:
		v = value.NewFloat(float64(i%7) + 0.5)
	default:
		v = value.NewStr(fmt.Sprintf("s%d", i%11))
	}
	n := value.NewInt(int64((i * 37) % 101))
	if i%9 == 0 {
		n = value.NewNull()
	}
	return []value.Value{value.NewInt(int64(i)), v, n}
}

// lazyProbes are the literals the equivalence checks probe with.
func lazyProbes() []value.Value {
	var out []value.Value
	for i := 0; i < 12; i++ {
		out = append(out, value.NewInt(int64(i)), value.NewFloat(float64(i)+0.5),
			value.NewStr(fmt.Sprintf("s%d", i)))
	}
	return append(out, value.NewInt(200), value.NewNull())
}

// sameIndex fails unless got answers every probe as want does.
func sameIndex(t *testing.T, label string, got, want *Index) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: index missing: lazy %v, ensured %v", label, got, want)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, want %d", label, got.Len(), want.Len())
	}
	for _, k := range []value.Kind{value.Null, value.Int, value.Float, value.Date, value.Str, value.Bool, value.Bytes} {
		if got.Usable(k) != want.Usable(k) {
			t.Fatalf("%s: Usable(%v) %v, want %v", label, k, got.Usable(k), want.Usable(k))
		}
	}
	probes := lazyProbes()
	for _, p := range probes {
		if g, w := got.Postings(p), want.Postings(p); !slices.Equal(g, w) {
			t.Fatalf("%s: Postings(%v) %v, want %v", label, p, g, w)
		}
		for _, lo := range []*value.Value{nil, &p} {
			for _, hi := range []*value.Value{nil, &probes[len(probes)-2]} {
				for _, incl := range []bool{false, true} {
					if g, w := got.RangeCount(lo, hi, incl, !incl), want.RangeCount(lo, hi, incl, !incl); g != w {
						t.Fatalf("%s: RangeCount(%v, %v) %d, want %d", label, lo, hi, g, w)
					}
					if g, w := got.Range(lo, hi, incl, !incl), want.Range(lo, hi, incl, !incl); !slices.Equal(g, w) {
						t.Fatalf("%s: Range(%v, %v) %v, want %v", label, lo, hi, g, w)
					}
				}
			}
		}
	}
}

// TestLazyIndexMatchesEnsured: an index declared before the load and built
// by its first read answers every probe — postings, Len, Usable, Range and
// RangeCount, over NULLs and mixed kinds — exactly as one EnsureIndex built
// before the load and Insert maintained, on both backends; and Insert keeps
// maintaining the lazily built one.
func TestLazyIndexMatchesEnsured(t *testing.T) {
	for _, backend := range []string{"mem", "disk"} {
		t.Run(backend, func(t *testing.T) {
			cat := NewCatalog()
			if backend == "disk" {
				cat, _ = diskCatalog(t, BackendConfig{PageBytes: 512, CacheBytes: 4096})
			}
			ensured := NewTable(lazySchema())
			lazy, err := cat.Create(lazySchema())
			if err != nil {
				t.Fatal(err)
			}
			tags := []indexTag{{"v", HashIndex}, {"v", OrderedIndex}, {"n", HashIndex}, {"n", OrderedIndex}}
			for _, tag := range tags {
				if _, err := ensured.EnsureIndex(tag.col, tag.kind); err != nil {
					t.Fatal(err)
				}
				if err := lazy.DeclareIndex(tag.col, tag.kind); err != nil {
					t.Fatal(err)
				}
			}
			const n = 800
			for i := 0; i < n; i++ {
				ensured.MustInsert(lazyRow(i))
				lazy.MustInsert(lazyRow(i))
			}
			if err := lazy.Flush(); err != nil {
				t.Fatal(err)
			}
			if declared, built := lazy.IndexCounts(); declared != len(tags) || built != 0 {
				t.Fatalf("after the load: %d declared, %d built; want %d, 0", declared, built, len(tags))
			}
			check := func(stage string) {
				t.Helper()
				for _, tag := range tags {
					got, err := lazy.Index(tag.col, tag.kind)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ensured.Index(tag.col, tag.kind)
					if err != nil {
						t.Fatal(err)
					}
					sameIndex(t, fmt.Sprintf("%s %s/%v", stage, tag.col, tag.kind), got, want)
				}
			}
			check("built")
			for i := n; i < n+100; i++ {
				ensured.MustInsert(lazyRow(i))
				lazy.MustInsert(lazyRow(i))
			}
			check("maintained")
			if ix, err := lazy.Index("id", HashIndex); ix != nil || err != nil {
				t.Fatalf("undeclared index: %v, %v", ix, err)
			}
			if err := lazy.DeclareIndex("nope", HashIndex); err == nil {
				t.Fatal("declaring an index on a missing column succeeded")
			}
		})
	}
}

// scanCounter counts the backend scans a table issues.
type scanCounter struct {
	Backend
	mu    sync.Mutex
	scans int
}

func (s *scanCounter) Scan(lo, hi int, cols []int, f Filter, sc *Scratch) ([][]value.Value, int64, error) {
	s.mu.Lock()
	s.scans++
	s.mu.Unlock()
	return s.Backend.Scan(lo, hi, cols, f, sc)
}

// TestLazyIndexConcurrentFirstTouch: eight goroutines that first-touch one
// declared index together get one index, built by one backfill.
func TestLazyIndexConcurrentFirstTouch(t *testing.T) {
	for _, kind := range []IndexKind{HashIndex, OrderedIndex} {
		tb := NewTable(lazySchema())
		if err := tb.DeclareIndex("n", kind); err != nil {
			t.Fatal(err)
		}
		const n = 3 * backfillChunk
		for i := 0; i < n; i++ {
			tb.MustInsert(lazyRow(i))
		}
		counter := &scanCounter{Backend: tb.be}
		tb.be = counter
		got := make([]*Index, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ix, err := tb.Index("n", kind)
				if err != nil {
					t.Error(err)
				}
				got[g] = ix
			}(g)
		}
		wg.Wait()
		for g, ix := range got {
			if ix == nil || ix != got[0] {
				t.Fatalf("%v: goroutine %d got index %p, goroutine 0 %p", kind, g, ix, got[0])
			}
		}
		if want := (n + backfillChunk - 1) / backfillChunk; counter.scans != want {
			t.Fatalf("%v: %d backfill scans, want one build of %d chunks", kind, counter.scans, want)
		}
		if _, built := tb.IndexCounts(); built != 1 {
			t.Fatalf("%v: %d indexes built, want 1", kind, built)
		}
	}
}

// TestLazyIndexFailedBuildRetries: a backfill that hits a corrupt page
// returns the typed segment error and leaves the index unbuilt; once the
// page reads again, the next call builds it, equal to an in-memory one.
func TestLazyIndexFailedBuildRetries(t *testing.T) {
	const pageBytes = 512
	cat, dir := diskCatalog(t, BackendConfig{PageBytes: pageBytes, CacheBytes: 4 * pageBytes})
	tb := loadFixture(t, cat, 300)
	mem := loadFixture(t, NewCatalog(), 300)
	if err := tb.DeclareIndex("id", HashIndex); err != nil {
		t.Fatal(err)
	}
	_, builtBefore := tb.IndexCounts() // the fixture's own, built by EnsureIndex
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	ds := tb.be.(*diskStore)
	if len(ds.dir) < 12 {
		t.Fatalf("fixture: %d sealed pages", len(ds.dir))
	}
	// Read every page so page 1 is evicted from the 4-page cache.
	for _, pm := range ds.dir {
		if _, _, err := tb.ScanCols(pm.first, pm.first+pm.nrows, []int{0}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.OpenFile(segPath(dir, "orders"), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	at := ds.dir[1].off + pageHeaderLen + 40
	orig := make([]byte, 1)
	if _, err := f.ReadAt(orig, at); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{^orig[0]}, at); err != nil {
		t.Fatal(err)
	}
	for try := 0; try < 2; try++ {
		ix, err := tb.Index("id", HashIndex)
		var se *SegmentError
		if ix != nil || !errors.As(err, &se) || !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("build over a corrupt page: %v, %v", ix, err)
		}
		if _, built := tb.IndexCounts(); built != builtBefore {
			t.Fatal("a failed build left the index built")
		}
	}
	if _, err := f.WriteAt(orig, at); err != nil {
		t.Fatal(err)
	}
	got, err := tb.Index("id", HashIndex)
	if err != nil {
		t.Fatalf("build after the page was mended: %v", err)
	}
	want, err := mem.EnsureIndex("id", HashIndex)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("Len %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < 300; i += 7 {
		v := value.NewInt(int64(i))
		if g, w := fmt.Sprint(got.Postings(v)), fmt.Sprint(want.Postings(v)); g != w {
			t.Fatalf("Postings(%d) %s, want %s", i, g, w)
		}
	}
}

// TestDropDerivedDropsDeclarations: replacing a table drops its declared
// indexes with its built ones, so the replaced table builds nothing.
func TestDropDerivedDropsDeclarations(t *testing.T) {
	cat := NewCatalog()
	old := NewTable(lazySchema())
	old.MustInsert(lazyRow(1))
	if err := old.DeclareIndex("n", HashIndex); err != nil {
		t.Fatal(err)
	}
	if _, err := old.EnsureIndex("v", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	cat.Put(old)
	cat.Put(NewTable(lazySchema()))
	if declared, built := old.IndexCounts(); declared != 0 || built != 0 {
		t.Fatalf("replaced table: %d declared, %d built", declared, built)
	}
	if ix, err := old.Index("n", HashIndex); ix != nil || err != nil {
		t.Fatalf("replaced table built a dropped declaration: %v, %v", ix, err)
	}
}

// TestHashIndexBuildCopiesKeysOnce: a hash-index backfill of 60 k rows over
// 15 k keys copies each distinct key once — a row that repeats a key
// allocates nothing — so its allocations are about one per distinct key.
func TestHashIndexBuildCopiesKeysOnce(t *testing.T) {
	const rows, keys = 60000, 15000
	tb := NewTable(Schema{Name: "k", Cols: []Column{{Name: "k", Type: TStr}}})
	for i := 0; i < rows; i++ {
		tb.MustInsert([]value.Value{value.NewStr(fmt.Sprintf("key-%05d", i%keys))})
	}
	tag := indexTag{col: "k", kind: HashIndex}
	if err := tb.DeclareIndex(tag.col, tag.kind); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		tb.indexes[tag] = &indexSlot{pos: 0}
		ix, err := tb.Index(tag.col, tag.kind)
		if err != nil || ix.Len() != rows {
			t.Fatalf("build: %v, %v", ix, err)
		}
	})
	if allocs > keys*1.1 {
		t.Fatalf("a %d-row build over %d keys allocated %.0f times, want about one per key", rows, keys, allocs)
	}
	t.Logf("%.0f allocations for %d keys", allocs, keys)
}
