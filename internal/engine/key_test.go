package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// keyCollisionFixture loads two rows whose string pairs shared one composite
// key when every component's key was followed by a 0 byte, and a table to
// join them with:
//
//	t(id, a, b, n)     (1, "a\x00\x03b", "c", 1), (2, "a", "b\x00\x03c", 1)
//	u(x, y, m, v)      ("a\x00\x03b", "c", m, 99+m) for m = 1, 2, 3
//	                   hash index on m, the key with the most distinct
//	                   values, when indexes is set
func keyCollisionFixture(t *testing.T, cat *storage.Catalog, indexes bool) *Engine {
	t.Helper()
	tt, err := cat.Create(storage.Schema{Name: "t", Cols: []storage.Column{
		{Name: "id", Type: storage.TInt}, {Name: "a", Type: storage.TStr},
		{Name: "b", Type: storage.TStr}, {Name: "n", Type: storage.TInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	tt.MustInsert([]value.Value{value.NewInt(1), value.NewStr("a\x00\x03b"), value.NewStr("c"), value.NewInt(1)})
	tt.MustInsert([]value.Value{value.NewInt(2), value.NewStr("a"), value.NewStr("b\x00\x03c"), value.NewInt(1)})
	u, err := cat.Create(storage.Schema{Name: "u", Cols: []storage.Column{
		{Name: "x", Type: storage.TStr}, {Name: "y", Type: storage.TStr},
		{Name: "m", Type: storage.TInt}, {Name: "v", Type: storage.TInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for m := int64(1); m <= 3; m++ {
		u.MustInsert([]value.Value{value.NewStr("a\x00\x03b"), value.NewStr("c"), value.NewInt(m), value.NewInt(99 + m)})
	}
	if indexes {
		if err := u.DeclareIndex("m", storage.HashIndex); err != nil {
			t.Fatal(err)
		}
	}
	return New(cat)
}

// renderKeyRows renders a result's rows with every cell quoted.
func renderKeyRows(rows [][]value.Value) string {
	var b strings.Builder
	for _, row := range rows {
		for _, v := range row {
			fmt.Fprintf(&b, "%q ", v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestKeyCollisionRows: grouping, DISTINCT, a two-key hashed join, a
// three-key join through the hashed and the index-probed build (probed by m,
// rechecked on a and b), and decorrelated EXISTS, IN and scalar subqueries
// keep the two rows of t apart, on the in-memory and the disk store, without
// indexes and with them declared.
func TestKeyCollisionRows(t *testing.T) {
	catalogs := map[string]func() *storage.Catalog{
		"mem": storage.NewCatalog,
		"disk": func() *storage.Catalog {
			cat := storage.NewCatalogWith(storage.BackendConfig{
				Kind: storage.BackendDisk, Dir: t.TempDir(), PageBytes: 512, CacheBytes: 1024,
			})
			t.Cleanup(func() { cat.Close() })
			return cat
		},
	}
	row := func(cells ...string) string {
		var b strings.Builder
		for _, c := range cells {
			fmt.Fprintf(&b, "%q ", c)
		}
		return b.String() + "\n"
	}
	cases := []struct {
		sql, want string
		probed    bool // served by the index-probed build when indexes are on
	}{
		{`SELECT a, b, COUNT(*) FROM t GROUP BY a, b ORDER BY a`,
			row("a", "b\x00\x03c", "1") + row("a\x00\x03b", "c", "1"), false},
		{`SELECT DISTINCT a, b FROM t ORDER BY a`,
			row("a", "b\x00\x03c") + row("a\x00\x03b", "c"), false},
		{`SELECT id, v FROM t, u WHERE a = x AND b = y ORDER BY v`,
			row("1", "100") + row("1", "101") + row("1", "102"), false},
		{`SELECT id, v FROM t, u WHERE a = x AND b = y AND n = m`,
			row("1", "100"), true},
		{`SELECT id FROM t WHERE EXISTS (SELECT * FROM u WHERE x = a AND y = b) ORDER BY id`,
			row("1"), false},
		{`SELECT id FROM t WHERE b IN (SELECT y FROM u WHERE x = a) ORDER BY id`,
			row("1"), false},
		{`SELECT id FROM t WHERE b NOT IN (SELECT y FROM u WHERE x = a) ORDER BY id`,
			row("2"), false},
		{`SELECT id, (SELECT MAX(v) FROM u WHERE x = a AND y = b) FROM t ORDER BY id`,
			row("1", "102") + row("2", "NULL"), false},
	}
	for name, newCat := range catalogs {
		for _, idx := range []bool{false, true} {
			e := keyCollisionFixture(t, newCat(), idx)
			for _, c := range cases {
				res := run(t, e, c.sql, nil)
				if got := renderKeyRows(res.Rows); got != c.want {
					t.Errorf("%s, indexes %v: %s\n got:\n%swant:\n%s", name, idx, c.sql, got, c.want)
				}
				if probed := res.Stats.IndexLookups > 0; c.probed && probed != idx {
					t.Errorf("%s, indexes %v: %s made %d index lookups", name, idx, c.sql, res.Stats.IndexLookups)
				}
			}
		}
	}
}
