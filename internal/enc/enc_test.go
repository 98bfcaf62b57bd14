package enc

import (
	"errors"
	"testing"

	"repro/internal/ast"
	"repro/internal/crypto/ope"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

func testKeyStore(t testing.TB) *KeyStore {
	t.Helper()
	ks, err := NewKeyStore([]byte("enc-test"), 256)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

func TestItemIdentityAndNaming(t *testing.T) {
	a := ColumnItem("t", "x", DET, value.Int)
	b := ColumnItem("t", "x", OPE, value.Int)
	if a.Key() == b.Key() {
		t.Error("different schemes must have different keys")
	}
	if a.ColumnName() != "x_det" || b.ColumnName() != "x_ope" {
		t.Errorf("names = %q %q", a.ColumnName(), b.ColumnName())
	}
	expr, err := sqlparser.ParseExpr("a * b")
	if err != nil {
		t.Fatal(err)
	}
	p := ExprItem("t", expr, HOM, value.Int)
	if !p.IsPrecomputed() || a.IsPrecomputed() {
		t.Error("precompute detection")
	}
	if p.ColumnName()[:3] != "pc_" {
		t.Errorf("precomp name = %q", p.ColumnName())
	}
}

func TestJoinGroupSharesKeyLabel(t *testing.T) {
	a := ColumnItem("orders", "o_id", DET, value.Int)
	b := ColumnItem("items", "i_order", DET, value.Int)
	if a.KeyLabel() == b.KeyLabel() {
		t.Fatal("ungrouped items must not share keys")
	}
	a.JoinGroup = "orderkey"
	b.JoinGroup = "orderkey"
	if a.KeyLabel() != b.KeyLabel() {
		t.Fatal("grouped items must share keys")
	}
}

func TestDesignOps(t *testing.T) {
	d := &Design{}
	it := ColumnItem("t", "x", DET, value.Int)
	d.Add(it)
	d.Add(it) // duplicate ignored
	if len(d.Items) != 1 {
		t.Errorf("items = %d", len(d.Items))
	}
	if !d.Contains(it) {
		t.Error("Contains")
	}
	other := &Design{}
	other.Add(ColumnItem("t", "y", OPE, value.Int))
	d.Merge(other)
	if len(d.Items) != 2 {
		t.Errorf("after merge = %d", len(d.Items))
	}
	if got := d.TableItems("t"); len(got) != 2 {
		t.Errorf("table items = %d", len(got))
	}
	if _, ok := d.Find("t", "y", OPE); !ok {
		t.Error("Find should locate the OPE item")
	}
	if _, ok := d.Find("t", "y", DET); ok {
		t.Error("Find must respect the scheme")
	}
}

func TestEncryptDecryptValueAllSchemes(t *testing.T) {
	ks := testKeyStore(t)
	cases := []struct {
		item Item
		v    value.Value
	}{
		{ColumnItem("t", "a", DET, value.Int), value.NewInt(-42)},
		{ColumnItem("t", "b", DET, value.Str), value.NewStr("FRANCE")},
		{ColumnItem("t", "c", DET, value.Date), value.NewDate(9131)},
		{ColumnItem("t", "d", OPE, value.Int), value.NewInt(123456)},
		{ColumnItem("t", "e", OPE, value.Date), value.NewDate(9131)},
		{ColumnItem("t", "f", RND, value.Int), value.NewInt(7)},
		{ColumnItem("t", "g", RND, value.Str), value.NewStr("hello world")},
		{ColumnItem("t", "h", RND, value.Float), value.NewFloat(-2.75)},
		{ColumnItem("t", "i", RND, value.Float), value.NewFloat(1e20)},
	}
	for _, c := range cases {
		cv, err := ks.EncryptValue(&c.item, c.v)
		if err != nil {
			t.Fatalf("%s: encrypt: %v", c.item.Key(), err)
		}
		pv, err := ks.DecryptValue(&c.item, cv)
		if err != nil {
			t.Fatalf("%s: decrypt: %v", c.item.Key(), err)
		}
		if value.Compare(pv, c.v) != 0 {
			t.Errorf("%s: round trip %v -> %v", c.item.Key(), c.v, pv)
		}
	}
	// NULL passes through.
	it := ColumnItem("t", "a", DET, value.Int)
	cv, err := ks.EncryptValue(&it, value.NewNull())
	if err != nil || !cv.IsNull() {
		t.Error("NULL should encrypt to NULL")
	}
	// SEARCH blobs are not decryptable.
	srch := ColumnItem("t", "s", SEARCH, value.Str)
	blob, err := ks.EncryptValue(&srch, value.NewStr("some words"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ks.DecryptValue(&srch, blob); err == nil {
		t.Error("SEARCH decryption should fail")
	}
	// Scheme/type mismatches fail.
	opeIt := ColumnItem("t", "d", OPE, value.Int)
	if _, err := ks.EncryptValue(&opeIt, value.NewStr("no")); err == nil {
		t.Error("OPE over strings should fail")
	}
	// A kind RND cannot encode is an error, not an empty plaintext.
	rndIt := ColumnItem("t", "f", RND, value.Int)
	if _, err := ks.EncryptValue(&rndIt, value.Value{K: value.Kind(99)}); err == nil {
		t.Error("RND over an unknown kind should fail")
	}
	// Sixteen bytes that are no OPE ciphertext are a typed error, not a value.
	cv, err = ks.EncryptValue(&opeIt, value.NewInt(123456))
	if err != nil {
		t.Fatal(err)
	}
	cv.B[0] ^= 0x20
	if pv, err := ks.DecryptValue(&opeIt, cv); !errors.Is(err, ope.ErrNotCiphertext) {
		t.Errorf("corrupted OPE cell decrypts to %v, %v; want ope.ErrNotCiphertext", pv, err)
	}
}

func TestEncryptDatabaseLayout(t *testing.T) {
	cat := storage.NewCatalog()
	tbl, err := cat.Create(storage.Schema{
		Name: "t",
		Cols: []storage.Column{
			{Name: "k", Type: storage.TInt},
			{Name: "v", Type: storage.TInt},
			{Name: "s", Type: storage.TStr},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 30; i++ {
		tbl.MustInsert([]value.Value{value.NewInt(i), value.NewInt(i * 2), value.NewStr("w")})
	}
	ks := testKeyStore(t)
	design := &Design{GroupedAddition: true, MultiRowPacking: true}
	design.Add(ColumnItem("t", "k", DET, value.Int))
	design.Add(ColumnItem("t", "s", RND, value.Str))
	design.Add(ColumnItem("t", "v", HOM, value.Int))
	expr, _ := sqlparser.ParseExpr("v * 2")
	design.Add(ExprItem("t", expr, HOM, value.Int))

	db, err := EncryptDatabase(cat, design, ks)
	if err != nil {
		t.Fatal(err)
	}
	et, err := db.Cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	// row_id + k_det + s_rnd (HOM lives in the ciphertext file).
	if len(et.Schema.Cols) != 3 {
		t.Fatalf("enc cols = %v", et.Schema.Cols)
	}
	if et.Schema.Cols[0].Name != RowIDColumn {
		t.Errorf("first col = %s", et.Schema.Cols[0].Name)
	}
	meta := db.Meta["t"]
	if meta == nil || !meta.HasRowID || len(meta.Groups) != 1 {
		t.Fatalf("meta = %+v", meta)
	}
	if len(meta.Groups[0].Items) != 2 {
		t.Errorf("grouped addition should pack both HOM items together, got %d", len(meta.Groups[0].Items))
	}
	g, slot := meta.FindGroupColumn("v")
	if g == nil || slot != 0 {
		t.Errorf("FindGroupColumn(v) = %v %d", g, slot)
	}
	if _, slot2 := meta.FindGroupColumn("(v * 2)"); slot2 != 1 {
		t.Errorf("precomp slot = %d", slot2)
	}
	if db.TotalBytes() <= et.Bytes {
		t.Error("total must include ciphertext files")
	}
	// DET values decrypt back.
	idx, item := meta.FindItem("k", DET)
	if item == nil {
		t.Fatal("k_det missing from meta")
	}
	cv := et.Row(3)[meta.ColumnOf(idx)]
	pv, err := ks.DecryptValue(item, cv)
	if err != nil || pv.AsInt() != 3 {
		t.Errorf("k decrypts to %v (%v)", pv, err)
	}
}

func TestEncryptDatabaseRejectsNegativesInHOM(t *testing.T) {
	cat := storage.NewCatalog()
	tbl, _ := cat.Create(storage.Schema{
		Name: "t", Cols: []storage.Column{{Name: "v", Type: storage.TInt}},
	})
	tbl.MustInsert([]value.Value{value.NewInt(-5)})
	ks := testKeyStore(t)
	design := &Design{GroupedAddition: true, MultiRowPacking: true}
	design.Add(ColumnItem("t", "v", HOM, value.Int))
	if _, err := EncryptDatabase(cat, design, ks); err == nil {
		t.Error("negative HOM values must be rejected")
	}
}

func TestHomGroupBinPacking(t *testing.T) {
	// Many wide HOM items must split across several ciphertext groups when
	// one plaintext cannot hold them all (256-bit test key: ~254 bits).
	cat := storage.NewCatalog()
	cols := []storage.Column{}
	for _, n := range []string{"a", "b", "c", "d", "e", "f"} {
		cols = append(cols, storage.Column{Name: n, Type: storage.TInt})
	}
	tbl, _ := cat.Create(storage.Schema{Name: "t", Cols: cols})
	for i := int64(0); i < 100; i++ {
		row := make([]value.Value, 6)
		for j := range row {
			row[j] = value.NewInt(1 << 40) // 41-bit values + padding
		}
		tbl.MustInsert(row)
	}
	ks := testKeyStore(t)
	design := &Design{GroupedAddition: true, MultiRowPacking: true}
	for _, n := range []string{"a", "b", "c", "d", "e", "f"} {
		design.Add(ColumnItem("t", n, HOM, value.Int))
	}
	db, err := EncryptDatabase(cat, design, ks)
	if err != nil {
		t.Fatal(err)
	}
	meta := db.Meta["t"]
	if len(meta.Groups) < 2 {
		t.Errorf("six 41-bit fields cannot fit one 254-bit plaintext; groups = %d", len(meta.Groups))
	}
	// Every item must still be locatable.
	for _, n := range []string{"a", "f"} {
		if g, _ := meta.FindGroupColumn(n); g == nil {
			t.Errorf("item %s lost in bin packing", n)
		}
	}
}

var _ = ast.NewQuery // keep ast import for expression fixtures

// TestEncryptDatabaseIndexesAndKey checks that encryption declares the
// secondary indexes the schemes imply — a hash index per DET column, an
// ordered index per OPE column — builds none of them until a read asks for
// one, and propagates the plaintext primary key
// onto its DET columns (deterministic encryption preserves equality, so
// uniqueness carries over and the encrypted table enforces it).
func TestEncryptDatabaseIndexesAndKey(t *testing.T) {
	cat := storage.NewCatalog()
	tbl, err := cat.Create(storage.Schema{
		Name: "t",
		Cols: []storage.Column{
			{Name: "k", Type: storage.TInt},
			{Name: "v", Type: storage.TInt},
		},
		Key: []string{"k"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		tbl.MustInsert([]value.Value{value.NewInt(i), value.NewInt(i % 5)})
	}
	ks := testKeyStore(t)
	design := &Design{}
	design.Add(ColumnItem("t", "k", DET, value.Int))
	design.Add(ColumnItem("t", "v", DET, value.Int))
	design.Add(ColumnItem("t", "v", OPE, value.Int))

	db, err := EncryptDatabase(cat, design, ks)
	if err != nil {
		t.Fatal(err)
	}
	et, err := db.Cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if declared, built := et.IndexCounts(); declared != 3 || built != 0 {
		t.Errorf("after encryption: %d indexes declared, %d built; want 3 declared, none built", declared, built)
	}
	index := func(col string, kind storage.IndexKind) *storage.Index {
		t.Helper()
		ix, err := et.Index(col, kind)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	if ix := index("k_det", storage.HashIndex); ix == nil || ix.Len() != 20 {
		t.Errorf("k_det hash index = %v", ix)
	}
	if ix := index("v_det", storage.HashIndex); ix == nil {
		t.Error("v_det hash index missing")
	}
	if ix := index("v_ope", storage.OrderedIndex); ix == nil || ix.Len() != 20 {
		t.Errorf("v_ope ordered index = %v", ix)
	}
	if got := et.Schema.Key; len(got) != 1 || got[0] != "k_det" {
		t.Errorf("encrypted key = %v, want [k_det]", got)
	}
	if !et.HasKey() {
		t.Error("encrypted table does not enforce its key")
	}
	// A duplicate encrypted key must be rejected like a plaintext one.
	dup := make([]value.Value, len(et.Schema.Cols))
	copy(dup, et.Row(0))
	if err := et.Insert(dup); err == nil {
		t.Error("duplicate DET key insert succeeded")
	}

	// Without a DET item on every key column, no key propagates.
	cat2 := storage.NewCatalog()
	t2, err := cat2.Create(storage.Schema{
		Name: "u",
		Cols: []storage.Column{{Name: "k", Type: storage.TInt}},
		Key:  []string{"k"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t2.MustInsert([]value.Value{value.NewInt(1)})
	d2 := &Design{}
	d2.Add(ColumnItem("u", "k", OPE, value.Int))
	db2, err := EncryptDatabase(cat2, d2, ks)
	if err != nil {
		t.Fatal(err)
	}
	eu, err := db2.Cat.Table("u")
	if err != nil {
		t.Fatal(err)
	}
	if eu.HasKey() {
		t.Error("key propagated without DET coverage")
	}
}
