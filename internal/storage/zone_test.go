package storage

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/value"
)

// Zone maps: a filtered Scan skips a sealed page whose zones rule its page
// predicate out (Pred.rulesOut). These tests hold the two sides of that
// contract — a skipped page holds no row the predicate keeps, and skipping
// changes no answer — and that nothing without a zone is ever skipped.

// zoneSchema is z(i Int, d Date, b Bytes of width 2), every column zoned.
func zoneSchema() Schema {
	return Schema{Name: "z", Cols: []Column{{Name: "i", Type: TInt}, {Name: "d", Type: TDate}, {Name: "b", Type: TBytes}}}
}

// zoneCell is a random cell of column c from a small domain, so constants
// often equal a page's least or greatest cell.
func zoneCell(rng *rand.Rand, c int) value.Value {
	x := rng.Int63n(40)
	switch c {
	case 0:
		return value.NewInt(x)
	case 1:
		return value.NewDate(x)
	}
	return value.NewBytes([]byte{byte(x / 8), byte(x % 8)})
}

// randPred is a random AND/OR tree of PredRange and PredIn atoms, with
// inclusive, exclusive and open bounds, of the given depth.
func randPred(rng *rand.Rand, depth int) Pred {
	if depth > 0 && rng.Intn(3) > 0 {
		kids := make([]Pred, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = randPred(rng, depth-1)
		}
		if rng.Intn(2) == 0 {
			return PredAnd(kids...)
		}
		return PredOr(kids...)
	}
	c := rng.Intn(3)
	if rng.Intn(3) == 0 {
		in := make([]value.Value, rng.Intn(4))
		for i := range in {
			in[i] = zoneCell(rng, c)
		}
		return PredIn(c, in...)
	}
	var b [2]*value.Value
	for i := range b {
		if rng.Intn(4) > 0 {
			v := zoneCell(rng, c)
			b[i] = &v
		}
	}
	return PredRange(c, b[0], b[1], rng.Intn(2) == 0, rng.Intn(2) == 0)
}

// TestZoneRulesOutExactly: over random pages of fixed Int, Date and Bytes
// cells, clustered on i so zones are narrow, and random predicates, a page
// the zones rule out holds no row the page predicate keeps, and a Scan that
// skips returns exactly the rows a row-by-row evaluation keeps.
func TestZoneRulesOutExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	skips := 0
	for trial := 0; trial < 20; trial++ {
		cat, _ := diskCatalog(t, BackendConfig{PageBytes: 256, CacheBytes: 1024})
		tb, err := cat.CreateSplit(zoneSchema(), nil, []string{"i", "d", "b"})
		if err != nil {
			t.Fatal(err)
		}
		n := 300 + rng.Intn(200)
		for r := 0; r < n; r++ {
			row := []value.Value{value.NewInt(int64(r * 40 / n)), zoneCell(rng, 1), zoneCell(rng, 2)}
			if rng.Intn(2) == 0 { // some pages' d and b track i: narrow zones
				row[1], row[2] = value.NewDate(row[0].I), value.NewBytes([]byte{byte(row[0].I / 8), byte(row[0].I % 8)})
			}
			tb.MustInsert(row)
		}
		ds := tb.be.(*diskStore)
		for q := 0; q < 50; q++ {
			pred := randPred(rng, 3)
			f := &zoneFilter{pred: &pred}
			var want [][]value.Value
			skipped := 0
			for _, pm := range ds.dir {
				rows, _, err := tb.ScanCols(pm.first, pm.first+pm.nrows, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				out := pred.rulesOut(&pm, ds.zoneAt, nil)
				if out {
					skipped++
				}
				for _, row := range rows {
					if ok, _ := f.Keep(row); ok {
						if out {
							t.Fatalf("trial %d: page at row %d ruled out, yet keeps %v under %+v", trial, pm.first, row, pred)
						}
						want = append(want, row)
					}
				}
			}
			tailRows, _, err := tb.ScanCols(ds.nflushed, n, nil, f, nil)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, tailRows...)
			got, _, err := tb.ScanCols(0, n, nil, f, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffRows(got, want); d != "" {
				t.Fatalf("trial %d: skipping scan differs from page-by-page evaluation (%d pages skipped): %s", trial, skipped, d)
			}
			skips += skipped
		}
		cat.Close()
	}
	if skips == 0 {
		t.Fatal("no predicate ruled out any page")
	}
}

// zoneFilter is a PageFilter over several columns that is all page
// predicate.
type zoneFilter struct{ pred *Pred }

func (f *zoneFilter) Cols() []int { return []int{0, 1, 2} }

func (f *zoneFilter) Keep(row []value.Value) (bool, error) { return f.pred.keeps(row), nil }

func (f *zoneFilter) Page() (*Pred, Filter) { return f.pred, nil }

// keeps evaluates p on a whole row by value.Compare: the row-by-row oracle.
func (p *Pred) keeps(row []value.Value) bool {
	switch p.op {
	case predAnd:
		for i := range p.kids {
			if !p.kids[i].keeps(row) {
				return false
			}
		}
		return true
	case predOr:
		for i := range p.kids {
			if p.kids[i].keeps(row) {
				return true
			}
		}
		return false
	}
	return p.holds(row[p.col])
}

// TestZoneNeverSkipsTaggedOrTail: a page whose zoned column's region is
// tagged (it holds a NULL) has no zone and is read, and so are the unsealed
// tail's rows, whatever the predicate.
func TestZoneNeverSkipsTaggedOrTail(t *testing.T) {
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: 256, CacheBytes: 1024})
	defer cat.Close()
	tb, err := cat.CreateSplit(zoneSchema(), nil, []string{"i"})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 203; r++ {
		i := value.NewInt(int64(r))
		if r == 5 { // page 0's i region is tagged
			i = value.NewNull()
		}
		tb.MustInsert([]value.Value{i, value.NewDate(int64(r)), value.NewBytes([]byte{1, 2})})
	}
	ds := tb.be.(*diskStore)
	if len(ds.tail) == 0 || len(ds.dir) < 3 {
		t.Fatalf("fixture: %d pages, %d tail rows", len(ds.dir), len(ds.tail))
	}
	if z := ds.dir[0].zones[0]; z.lo.K != value.Null {
		t.Fatalf("tagged region got a zone %+v", z)
	}
	// `i IN ()` is TRUE on no row, so every zone rules it out.
	none := PredIn(0)
	for pi := range ds.dir {
		if got, want := none.rulesOut(&ds.dir[pi], ds.zoneAt, nil), pi > 0; got != want {
			t.Errorf("page %d: rulesOut = %v, want %v", pi, got, want)
		}
	}
	// Every row not in the tail, and the NULL, is below the tail's first id.
	lo := value.NewInt(int64(ds.nflushed))
	tail := PredRange(0, &lo, nil, true, false)
	before := tb.IO()
	rows, _, err := tb.ScanCols(0, tb.NumRows(), nil, &predFilter{pred: &tail}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ds.tail) {
		t.Errorf("scan kept %d rows, the tail holds %d", len(rows), len(ds.tail))
	}
	after := tb.IO()
	if pins := after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses; pins != 1 {
		t.Errorf("scan pinned %d pages, want only page 0, whose i region is tagged", pins)
	}
}

// TestZoneSkippedCorruptPageNotRead: a page the zones rule out is never
// pinned, so smashing it on disk changes neither the answer nor the read
// counters of a scan that skips it.
func TestZoneSkippedCorruptPageNotRead(t *testing.T) {
	cat, _ := diskCatalog(t, BackendConfig{PageBytes: 1024, CacheBytes: 2048})
	defer cat.Close()
	tb := loadFixture(t, cat, 500)
	ds := tb.be.(*diskStore)
	smashed := ds.dir[1]
	smash(t, ds.path, smashed.off+smashed.physLen/2)
	lo := value.NewInt(int64(smashed.first + smashed.nrows))
	pred := PredRange(0, &lo, nil, true, false)
	before := tb.IO()
	rows, phys, err := tb.ScanCols(0, tb.NumRows(), []int{0, 4}, &predFilter{pred: &pred}, nil)
	if err != nil {
		t.Fatalf("scan that skips the smashed page: %v", err)
	}
	if want := tb.NumRows() - int(lo.I); len(rows) != want || rows[0][0].I != lo.I {
		t.Fatalf("scan kept %d rows from id %v, want %d from %d", len(rows), rows[0][0], want, lo.I)
	}
	var want int64
	for _, pm := range ds.dir[2:] {
		want += pm.physLen
	}
	after := tb.IO()
	if pins := after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses; pins != int64(len(ds.dir)-2) || phys != want {
		t.Errorf("scan pinned %d pages charging %d bytes, want the %d after the smashed one, %d bytes", pins, phys, len(ds.dir)-2, want)
	}
	if _, ok := ds.cache.pages[1]; ok {
		t.Error("the smashed page is in the block cache")
	}
	if _, _, err := tb.ScanCols(0, tb.NumRows(), []int{0, 4}, nil, nil); err == nil {
		t.Error("a full scan read past the smashed page")
	}
}

// smash overwrites 16 bytes of the segment file at path from off.
func smash(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("0123456789abcdef"), off); err != nil {
		t.Fatal(err)
	}
}
