package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Paged-table tests: a statement over a disk-backed catalog scans each base
// table with only the columns the statement names (fromSource), and every
// result must stay byte-identical to the same statement over the in-memory
// catalog, whose scans are full-width.

// pagedFixture loads one seeded data set into cat:
//
//	ev(e_pad, e_id, e_cat, e_val, e_opt, e_ok)   600 rows, NULLs in e_cat/e_val
//	dim(d_pad, d_w, d_cat)                       hash indexes on d_w AND d_cat
//
// Both tables lead with a column no query names, so a pruned layout's
// positions never coincide with schema positions, and dim's two hash
// indexes make a join build served from the wrong one return wrong rows.
func pagedFixture(t *testing.T, cat *storage.Catalog) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ev, err := cat.Create(storage.Schema{
		Name: "ev",
		Cols: []storage.Column{
			{Name: "e_pad", Type: storage.TBytes},
			{Name: "e_id", Type: storage.TInt},
			{Name: "e_cat", Type: storage.TStr},
			{Name: "e_val", Type: storage.TInt},
			{Name: "e_opt", Type: storage.TInt},
			{Name: "e_ok", Type: storage.TBool},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cats := []string{"ale", "bock", "cider", "dubbel"}
	for i := 0; i < 600; i++ {
		c := value.NewStr(cats[rng.Intn(len(cats))])
		v := value.NewInt(rng.Int63n(1000))
		if rng.Intn(20) == 0 {
			c = value.Value{}
		}
		if rng.Intn(20) == 0 {
			v = value.Value{}
		}
		ev.MustInsert([]value.Value{
			value.NewBytes([]byte(fmt.Sprintf("pad-%04d", i))), value.NewInt(int64(i)), c, v,
			value.NewInt(rng.Int63n(7)), value.NewBool(i%3 == 0),
		})
	}
	if _, err := ev.EnsureIndex("e_cat", storage.HashIndex); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.EnsureIndex("e_val", storage.OrderedIndex); err != nil {
		t.Fatal(err)
	}
	dim, err := cat.Create(storage.Schema{
		Name: "dim",
		Cols: []storage.Column{
			{Name: "d_pad", Type: storage.TInt},
			{Name: "d_w", Type: storage.TInt},
			{Name: "d_cat", Type: storage.TStr},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range append(cats, "stray") {
		dim.MustInsert([]value.Value{value.NewInt(int64(-i)), value.NewInt(int64(i)), value.NewStr(c)})
		if i%2 == 0 { // duplicate build keys
			dim.MustInsert([]value.Value{value.NewInt(int64(-i)), value.NewInt(int64(i + 10)), value.NewStr(c)})
		}
	}
	dim.MustInsert([]value.Value{value.NewInt(0), value.NewInt(99), {}}) // NULL build key
	for _, col := range []string{"d_w", "d_cat"} {
		if _, err := dim.EnsureIndex(col, storage.HashIndex); err != nil {
			t.Fatal(err)
		}
	}
	return New(cat)
}

// pagedEngines returns the fixture on the in-memory backend and on disk
// segments of 512-byte pages behind a 2-page cache (ev spans ~40 pages and
// keeps an unsealed tail).
func pagedEngines(t *testing.T) (mem, disk *Engine) {
	t.Helper()
	cat := storage.NewCatalogWith(storage.BackendConfig{
		Kind: storage.BackendDisk, Dir: t.TempDir(), PageBytes: 512, CacheBytes: 1024,
	})
	t.Cleanup(func() { cat.Close() })
	return pagedFixture(t, storage.NewCatalog()), pagedFixture(t, cat)
}

// pagedQueries are the shapes whose column sets are easy to get wrong.
var pagedQueries = []string{
	// `*` anywhere means every column, of every table.
	`SELECT * FROM ev WHERE e_val < 100`,
	`SELECT * FROM ev, dim WHERE e_cat = d_cat AND e_id < 50`,
	`SELECT e_id FROM ev WHERE EXISTS (SELECT * FROM dim WHERE d_cat = e_cat AND d_w > 2)`,
	// No column of the scanned table is named at all.
	`SELECT COUNT(*) FROM ev`,
	`SELECT COUNT(*) FROM ev, dim`,
	// A correlated subquery is the only place e_opt (and then e_ok) is named.
	`SELECT e_id FROM ev WHERE e_val < 300 AND EXISTS (SELECT d_w FROM dim WHERE d_cat = e_cat AND d_w > e_opt)`,
	`SELECT e_id, (SELECT MAX(d_w) FROM dim WHERE d_cat = e_cat AND e_ok) FROM ev WHERE e_id < 80`,
	`SELECT e_id FROM ev WHERE e_opt IN (SELECT d_w FROM dim WHERE d_cat = e_cat)`,
	// Derived tables: columns named only inside, and only outside.
	`SELECT c, n FROM (SELECT e_cat AS c, COUNT(*) AS n, MIN(e_val) AS lo FROM ev GROUP BY e_cat) x WHERE n > 10 ORDER BY c`,
	`SELECT x.e_id, d_w FROM (SELECT e_id, e_cat FROM ev WHERE e_ok) x, dim WHERE x.e_cat = d_cat AND x.e_id < 40`,
	// One table under two aliases: both scans carry both aliases' columns.
	`SELECT a.e_id, b.e_val FROM ev a, ev b WHERE a.e_id = b.e_opt AND a.e_val < 50`,
	`SELECT a.e_id FROM ev a WHERE a.e_val > (SELECT AVG(b.e_val) FROM ev b WHERE b.e_cat = a.e_cat) AND a.e_id < 100`,
	// Index-served shapes: restricted scan, ordered emission, indexed build.
	`SELECT e_id, e_pad FROM ev WHERE e_cat = 'bock' AND e_val BETWEEN 100 AND 400`,
	`SELECT e_id, e_ok FROM ev ORDER BY e_val DESC LIMIT 25`,
	`SELECT e_id, d_w FROM ev, dim WHERE e_cat = d_cat`,
	`SELECT d_cat, SUM(e_val), COUNT(*) FROM ev, dim WHERE e_cat = d_cat GROUP BY d_cat ORDER BY d_cat`,
	`SELECT DISTINCT e_cat, e_ok FROM ev LIMIT 5`,
}

// TestPagedMatchesMem runs every shape on both catalogs across the
// ⟨Parallelism, BatchSize, UseIndexes⟩ grid, materialized and streamed.
func TestPagedMatchesMem(t *testing.T) {
	mem, disk := pagedEngines(t)
	for _, sql := range pagedQueries {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		for _, par := range []int{1, 4} {
			for _, batch := range []int{0, 7} {
				for _, idx := range []bool{false, true} {
					for _, e := range []*Engine{mem, disk} {
						e.Parallelism, e.BatchSize, e.UseIndexes = par, batch, idx
					}
					want, err := mem.Execute(q, nil)
					if err != nil {
						t.Fatalf("%q in memory: %v", sql, err)
					}
					got, err := disk.Execute(q, nil)
					if err != nil {
						t.Fatalf("%q on disk (par %d batch %d idx %v): %v", sql, par, batch, idx, err)
					}
					if renderAccess(got) != renderAccess(want) {
						t.Fatalf("%q (par %d batch %d idx %v): disk result differs from memory\n got: %.300s\nwant: %.300s",
							sql, par, batch, idx, renderAccess(got), renderAccess(want))
					}
					if got.Stats.RowsScanned != want.Stats.RowsScanned || got.Stats.IndexLookups != want.Stats.IndexLookups {
						t.Errorf("%q (par %d batch %d idx %v): disk scanned %d rows with %d index lookups, memory %d with %d",
							sql, par, batch, idx, got.Stats.RowsScanned, got.Stats.IndexLookups, want.Stats.RowsScanned, want.Stats.IndexLookups)
					}
					rs, err := disk.ExecuteStream(q, nil)
					if err != nil {
						t.Fatal(err)
					}
					streamed := &Result{Cols: rs.Cols()}
					for {
						b, err := rs.Next()
						if err != nil {
							t.Fatalf("%q streamed from disk: %v", sql, err)
						}
						if b == nil {
							break
						}
						streamed.Rows = append(streamed.Rows, b...)
					}
					if renderAccess(streamed) != renderAccess(want) {
						t.Fatalf("%q (par %d batch %d idx %v): streamed disk result differs from memory", sql, par, batch, idx)
					}
				}
			}
		}
	}
}

// TestPagedErrorsMatchMem: name resolution fails the same way over pruned
// layouts as over full ones.
func TestPagedErrorsMatchMem(t *testing.T) {
	mem, disk := pagedEngines(t)
	for _, sql := range []string{
		`SELECT e_id FROM ev a, ev b WHERE a.e_val = b.e_val`, // ambiguous in the SELECT list
		`SELECT a.e_id FROM ev a, ev b WHERE e_val = 3`,       // ambiguous in WHERE
		`SELECT e_nope FROM ev`,
		`SELECT e_id FROM ev WHERE d_cat = 'ale'`, // another table's column
	} {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		_, merr := mem.Execute(q, nil)
		_, derr := disk.Execute(q, nil)
		if merr == nil || derr == nil || merr.Error() != derr.Error() {
			t.Errorf("%q: memory says %v, disk says %v", sql, merr, derr)
		}
	}
}

// TestPagedLayoutIsPruned pins what fromSource hands a paged table: the
// schema positions of exactly the names the whole statement mentions —
// subquery-only and other-alias names included — and whole rows under `*`
// or on the in-memory backend.
func TestPagedLayoutIsPruned(t *testing.T) {
	mem, disk := pagedEngines(t)
	for _, c := range []struct {
		sql  string
		want []int // of ev, FROM entry 0
	}{
		{`SELECT e_id FROM ev WHERE e_val < 10`, []int{1, 3}},
		{`SELECT COUNT(*) FROM ev`, []int{}},
		{`SELECT e_id FROM ev WHERE EXISTS (SELECT d_w FROM dim WHERE d_cat = e_cat AND d_w > e_opt)`, []int{1, 2, 4}},
		{`SELECT a.e_id FROM ev a, ev b WHERE a.e_id = b.e_opt`, []int{1, 4}},
		{`SELECT e_id FROM ev, (SELECT e_ok AS k FROM ev) x WHERE k`, []int{1, 5}},
		{`SELECT * FROM ev`, nil},
		{`SELECT e_id FROM ev WHERE EXISTS (SELECT * FROM dim)`, nil},
	} {
		q, err := sqlparser.Parse(c.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", c.sql, err)
		}
		src, layout, err := disk.newCtx(q, nil).fromSource(&q.From[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(src.cols, c.want) {
			t.Errorf("%q: disk scan materializes positions %v, want %v", c.sql, src.cols, c.want)
		}
		width := len(c.want)
		if c.want == nil {
			width = 6
		}
		if len(layout.cols) != width {
			t.Errorf("%q: disk layout has %d columns, want %d", c.sql, len(layout.cols), width)
		}
		for i, ci := range src.cols {
			if got, want := layout.cols[i].name, src.t.Schema.Cols[ci].Name; got != want {
				t.Errorf("%q: layout column %d is %s, position %d is %s", c.sql, i, got, ci, want)
			}
		}
		mc := mem.newCtx(q, nil)
		src, layout, err = mc.fromSource(&q.From[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		if src.cols != nil || len(layout.cols) != 6 || mc.stmt.names != nil {
			t.Errorf("%q: in-memory scan narrowed to %v (%d layout columns, column set %v)", c.sql, src.cols, len(layout.cols), mc.stmt.names)
		}
	}
}

// TestPagedIndexedBuild: an unfiltered build side is served from its hash
// index under a pruned layout — dim scans as [d_w, d_cat], so d_cat's
// layout position (1) names d_w in the schema, which has a hash index of
// its own — and the join still matches on d_cat.
func TestPagedIndexedBuild(t *testing.T) {
	mem, disk := pagedEngines(t)
	const sql = `SELECT e_id, d_w FROM ev, dim WHERE e_cat = d_cat`
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mem.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	disk.UseIndexes = true
	got, err := disk.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.IndexLookups != 1 {
		t.Fatalf("build side took %d index lookups, want 1 (served from dim's d_cat index)", got.Stats.IndexLookups)
	}
	if len(got.Rows) == 0 || renderAccess(got) != renderAccess(want) {
		t.Fatalf("index-served join over a pruned layout: %d rows, want the %d the map-built join returns", len(got.Rows), len(want.Rows))
	}
}
