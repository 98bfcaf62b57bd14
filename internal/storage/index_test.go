package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/value"
)

func testTable(t *testing.T, key ...string) *Table {
	t.Helper()
	return NewTable(Schema{
		Name: "t",
		Cols: []Column{
			{Name: "id", Type: TInt},
			{Name: "tag", Type: TStr},
		},
		Key: key,
	})
}

// TestHashIndexInterleavedInserts checks incremental maintenance: lookups
// interleaved with inserts always see every row inserted so far.
func TestHashIndexInterleavedInserts(t *testing.T) {
	tb := testTable(t)
	ix, err := tb.EnsureIndex("tag", HashIndex)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int32{}
	for i := 0; i < 100; i++ {
		tag := fmt.Sprintf("tag%d", i%7)
		tb.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewStr(tag)})
		want[tag] = append(want[tag], int32(i))
		got := ix.Postings(value.NewStr(tag))
		if len(got) != len(want[tag]) {
			t.Fatalf("after insert %d: postings(%q) = %v, want %v", i, tag, got, want[tag])
		}
		for j := range got {
			if got[j] != want[tag][j] {
				t.Fatalf("after insert %d: postings(%q) = %v, want %v", i, tag, got, want[tag])
			}
		}
	}
}

// TestOrderedIndexInterleavedInserts checks the lazy re-sort: ranges asked
// between inserts reflect all rows, in ascending row-id order.
func TestOrderedIndexInterleavedInserts(t *testing.T) {
	tb := NewTable(Schema{Name: "t", Cols: []Column{{Name: "v", Type: TInt}}})
	ix, err := tb.EnsureIndex("v", OrderedIndex)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var vals []int64
	for i := 0; i < 200; i++ {
		v := rng.Int63n(50)
		tb.MustInsert([]value.Value{value.NewInt(v)})
		vals = append(vals, v)
		if i%17 != 0 {
			continue
		}
		lo, hi := value.NewInt(10), value.NewInt(30)
		got := ix.Range(&lo, &hi, true, false)
		var want []int32
		for id, x := range vals {
			if x >= 10 && x < 30 {
				want = append(want, int32(id))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after insert %d: range = %v, want %v", i, got, want)
		}
	}
}

// TestIndexNullKeys: NULLs are invisible to point and range lookups in both
// index kinds.
func TestIndexNullKeys(t *testing.T) {
	tb := NewTable(Schema{Name: "t", Cols: []Column{{Name: "v", Type: TInt}}})
	h, _ := tb.EnsureIndex("v", HashIndex)
	o, _ := tb.EnsureIndex("v", OrderedIndex)
	rows := []value.Value{value.NewInt(1), value.NewNull(), value.NewInt(1), value.NewNull(), value.NewInt(2)}
	for _, v := range rows {
		tb.MustInsert([]value.Value{v})
	}
	if got := h.Postings(value.NewNull()); got != nil {
		t.Fatalf("hash postings(NULL) = %v, want nil", got)
	}
	if got := h.Postings(value.NewInt(1)); fmt.Sprint(got) != "[0 2]" {
		t.Fatalf("hash postings(1) = %v", got)
	}
	if h.Len() != 3 || o.Len() != 3 {
		t.Fatalf("Len: hash %d ordered %d, want 3", h.Len(), o.Len())
	}
	if got := o.Range(nil, nil, true, true); fmt.Sprint(got) != "[0 2 4]" {
		t.Fatalf("open range = %v, want non-NULL rows [0 2 4]", got)
	}
}

// TestInternRoundTrip: duplicate strings share storage and the accounting
// reports both raw and resident bytes.
func TestInternRoundTrip(t *testing.T) {
	tb := testTable(t)
	for i := 0; i < 10; i++ {
		tb.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewStr("hello")})
	}
	allRows, _, _ := tb.ScanRows(0, tb.NumRows())
	for i, row := range allRows {
		if row[1].S != "hello" {
			t.Fatalf("row %d: interning changed the value: %v", i, row[1])
		}
	}
	// 10 ints + 1 full "hello" + 9 refs + overhead.
	wantRes := int64(10*8 + 5 + 9*internRefBytes + 10*rowOverhead)
	wantRaw := int64(10*8 + 10*5 + 10*rowOverhead)
	if tb.Bytes != wantRes || tb.RawBytes != wantRaw {
		t.Fatalf("Bytes = %d (want %d), RawBytes = %d (want %d)", tb.Bytes, wantRes, tb.RawBytes, wantRaw)
	}
	if tb.ColBytes[1] != 5+9*internRefBytes {
		t.Fatalf("ColBytes[tag] = %d", tb.ColBytes[1])
	}
}

// TestInternAdaptiveDisable: a high-cardinality column stops paying the
// dictionary cost once the hit rate proves hopeless; accounting falls back
// to full size for post-disable inserts.
func TestInternAdaptiveDisable(t *testing.T) {
	tb := testTable(t)
	for i := 0; i < internDisableAfter+100; i++ {
		tb.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewStr(fmt.Sprintf("unique-%08d", i))})
	}
	d := tb.dicts[1]
	if !d.disabled || d.m != nil {
		t.Fatalf("dictionary not disabled after %d distinct values", internDisableAfter+100)
	}
	if tb.Bytes != tb.RawBytes {
		t.Fatalf("all-distinct column should have Bytes == RawBytes (%d != %d)", tb.Bytes, tb.RawBytes)
	}
}

// TestIndexScanEqualsFullScan is the property test: on random data with
// NULLs and duplicates, the row set an index answers equals the row set a
// full scan filter finds.
func TestIndexScanEqualsFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tb := NewTable(Schema{Name: "t", Cols: []Column{{Name: "v", Type: TInt}, {Name: "s", Type: TStr}}})
	h, _ := tb.EnsureIndex("s", HashIndex)
	o, _ := tb.EnsureIndex("v", OrderedIndex)
	for i := 0; i < 2000; i++ {
		var v, s value.Value
		if rng.Intn(10) == 0 {
			v = value.NewNull()
		} else {
			v = value.NewInt(rng.Int63n(100))
		}
		if rng.Intn(10) == 0 {
			s = value.NewNull()
		} else {
			s = value.NewStr(fmt.Sprintf("s%d", rng.Intn(40)))
		}
		tb.MustInsert([]value.Value{v, s})
	}
	for trial := 0; trial < 50; trial++ {
		probe := value.NewStr(fmt.Sprintf("s%d", rng.Intn(50)))
		var want []int32
		for id, row := range mustScan(t, tb) {
			if !row[1].IsNull() && value.Compare(row[1], probe) == 0 {
				want = append(want, int32(id))
			}
		}
		if got := h.Postings(probe); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("postings(%v) = %v, want %v", probe, got, want)
		}

		a, b := rng.Int63n(110)-5, rng.Int63n(110)-5
		if a > b {
			a, b = b, a
		}
		lo, hi := value.NewInt(a), value.NewInt(b)
		var wantR []int32
		for id, row := range mustScan(t, tb) {
			if !row[0].IsNull() && value.Compare(row[0], lo) >= 0 && value.Compare(row[0], hi) <= 0 {
				wantR = append(wantR, int32(id))
			}
		}
		if got := o.Range(&lo, &hi, true, true); fmt.Sprint(got) != fmt.Sprint(wantR) {
			t.Fatalf("range[%d,%d] = %v, want %v", a, b, got, wantR)
		}
	}
}

// TestUniqueKeyRejectsDuplicates: Schema.Key is enforced at insert time;
// NULL key components are exempt.
func TestUniqueKeyRejectsDuplicates(t *testing.T) {
	tb := testTable(t, "id")
	if !tb.HasKey() {
		t.Fatal("key index not built")
	}
	tb.MustInsert([]value.Value{value.NewInt(1), value.NewStr("a")})
	tb.MustInsert([]value.Value{value.NewInt(2), value.NewStr("b")})
	err := tb.Insert([]value.Value{value.NewInt(1), value.NewStr("c")})
	if err == nil {
		t.Fatal("duplicate key accepted")
	}
	if tb.NumRows() != 2 || tb.Bytes == 0 {
		t.Fatalf("failed insert mutated the table: %d rows", tb.NumRows())
	}
	before := tb.Bytes
	if err := tb.Insert([]value.Value{value.NewNull(), value.NewStr("d")}); err != nil {
		t.Fatalf("NULL key rejected: %v", err)
	}
	if err := tb.Insert([]value.Value{value.NewNull(), value.NewStr("e")}); err != nil {
		t.Fatalf("second NULL key rejected: %v", err)
	}
	if tb.Bytes <= before {
		t.Fatal("NULL-key inserts not accounted")
	}
}

// TestUniqueKeyComposite: composite keys reject only full matches.
func TestUniqueKeyComposite(t *testing.T) {
	tb := NewTable(Schema{
		Name: "t",
		Cols: []Column{{Name: "a", Type: TInt}, {Name: "b", Type: TInt}},
		Key:  []string{"a", "b"},
	})
	tb.MustInsert([]value.Value{value.NewInt(1), value.NewInt(1)})
	tb.MustInsert([]value.Value{value.NewInt(1), value.NewInt(2)})
	tb.MustInsert([]value.Value{value.NewInt(2), value.NewInt(1)})
	if err := tb.Insert([]value.Value{value.NewInt(1), value.NewInt(2)}); err == nil {
		t.Fatal("composite duplicate accepted")
	}
}

// TestUniqueKeyCompositeCollision: a composite key over strings that hold
// NUL and tag bytes — ("a\x00\x03b", "c") and ("a", "b\x00\x03c") — is two
// keys, not one, on the in-memory and the disk store alike.
func TestUniqueKeyCompositeCollision(t *testing.T) {
	disk, _ := diskCatalog(t, BackendConfig{})
	defer disk.Close()
	for name, cat := range map[string]*Catalog{"mem": NewCatalog(), "disk": disk} {
		tb, err := cat.Create(Schema{
			Name: "t",
			Cols: []Column{{Name: "a", Type: TStr}, {Name: "b", Type: TStr}},
			Key:  []string{"a", "b"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Insert([]value.Value{value.NewStr("a\x00\x03b"), value.NewStr("c")}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tb.Insert([]value.Value{value.NewStr("a"), value.NewStr("b\x00\x03c")}); err != nil {
			t.Fatalf("%s: a different key rejected: %v", name, err)
		}
		if err := tb.Insert([]value.Value{value.NewStr("a"), value.NewStr("b\x00\x03c")}); err == nil {
			t.Fatalf("%s: composite duplicate accepted", name)
		}
	}
}

// TestPutDropsDerivedState: replacing a table in the catalog clears the old
// table's indexes and key so a stale reference cannot serve lookups.
func TestPutDropsDerivedState(t *testing.T) {
	cat := NewCatalog()
	old := testTable(t, "id")
	old.MustInsert([]value.Value{value.NewInt(1), value.NewStr("a")})
	if _, err := old.EnsureIndex("tag", HashIndex); err != nil {
		t.Fatal(err)
	}
	cat.Put(old)
	cat.Put(testTable(t))
	if declared, _ := old.IndexCounts(); declared != 0 {
		t.Fatal("replaced table kept its hash index")
	}
	if old.HasKey() {
		t.Fatal("replaced table kept its key index")
	}
	// Re-putting the same table must not self-destruct.
	fresh := testTable(t)
	if _, err := fresh.EnsureIndex("tag", HashIndex); err != nil {
		t.Fatal(err)
	}
	cat.Put(fresh)
	cat.Put(fresh)
	if ix, err := fresh.Index("tag", HashIndex); ix == nil || err != nil {
		t.Fatalf("re-putting the same table dropped its index: %v", err)
	}
}

// TestIndexClassGuards: a literal of the wrong kind class is not answerable
// (cross-kind Compare in the engine has quirks an index cannot mirror).
func TestIndexClassGuards(t *testing.T) {
	tb := NewTable(Schema{Name: "t", Cols: []Column{{Name: "v", Type: TInt}}})
	ix, _ := tb.EnsureIndex("v", HashIndex)
	tb.MustInsert([]value.Value{value.NewInt(1)})
	if !ix.Usable(value.Int) || !ix.Usable(value.Float) {
		t.Fatal("numeric literal should be usable on an int index")
	}
	if ix.Usable(value.Str) || ix.Usable(value.Null) {
		t.Fatal("cross-class literal must not be usable")
	}
}

// mustScan returns every row of tb (test iteration; queries use ScanRows
// with charging).
func mustScan(t *testing.T, tb *Table) [][]value.Value {
	t.Helper()
	rows, _, err := tb.ScanRows(0, tb.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}
