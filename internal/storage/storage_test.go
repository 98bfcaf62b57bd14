package storage

import (
	"testing"

	"repro/internal/value"
)

func testSchema() Schema {
	return Schema{
		Name: "orders",
		Cols: []Column{
			{Name: "o_orderkey", Type: TInt},
			{Name: "o_comment", Type: TStr},
		},
		Key: []string{"o_orderkey"},
	}
}

func TestInsertAndAccounting(t *testing.T) {
	tb := NewTable(testSchema())
	if err := tb.Insert([]value.Value{value.NewInt(1), value.NewStr("hello")}); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// 8 bytes int + 5 bytes string + 24 overhead
	if tb.Bytes != 8+5+rowOverhead {
		t.Errorf("bytes = %d", tb.Bytes)
	}
	if tb.ColBytes[0] != 8 || tb.ColBytes[1] != 5 {
		t.Errorf("col bytes = %v", tb.ColBytes)
	}
	if got := tb.AvgRowBytes(); got != float64(8+5+rowOverhead) {
		t.Errorf("avg row bytes = %v", got)
	}
}

func TestInsertArityError(t *testing.T) {
	tb := NewTable(testSchema())
	if err := tb.Insert([]value.Value{value.NewInt(1)}); err == nil {
		t.Error("expected arity error")
	}
}

func TestSchemaColIndex(t *testing.T) {
	s := testSchema()
	if s.ColIndex("o_comment") != 1 {
		t.Error("ColIndex o_comment")
	}
	if s.ColIndex("nope") != -1 {
		t.Error("missing column should be -1")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	tb, err := c.Create(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(testSchema()); err == nil {
		t.Error("duplicate create should fail")
	}
	got, err := c.Table("orders")
	if err != nil || got != tb {
		t.Fatalf("lookup: %v", err)
	}
	if _, err := c.Table("missing"); err == nil {
		t.Error("missing table should error")
	}
	tb.MustInsert([]value.Value{value.NewInt(1), value.NewStr("x")})
	if c.TotalBytes() != tb.Bytes {
		t.Error("TotalBytes mismatch")
	}
	c2, _ := c.Create(Schema{Name: "aaa", Cols: []Column{{Name: "x", Type: TInt}}})
	_ = c2
	names := c.Names()
	if len(names) != 2 || names[0] != "aaa" || names[1] != "orders" {
		t.Errorf("names = %v", names)
	}
	c.Drop("aaa")
	if len(c.Names()) != 1 {
		t.Error("drop failed")
	}
}

func TestEmptyTableAvg(t *testing.T) {
	tb := NewTable(testSchema())
	if tb.AvgRowBytes() != 0 {
		t.Error("empty table avg should be 0")
	}
}

// TestColTypeKind: every column type's kind maps back to the type, and a
// kind no column holds on its own (NULL) maps to TInt.
func TestColTypeKind(t *testing.T) {
	for _, ct := range []ColType{TInt, TFloat, TStr, TDate, TBytes, TBool} {
		if got := ColTypeOf(ct.Kind()); got != ct {
			t.Errorf("%v: kind %v maps back to %v", ct, ct.Kind(), got)
		}
	}
	if got := ColTypeOf(value.Null); got != TInt {
		t.Errorf("NULL maps to %v, want int", got)
	}
}
