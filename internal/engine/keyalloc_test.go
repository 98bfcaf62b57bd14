package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestJoinBuildCopiesKeysOnce: a hashed join build of 60 k rows over 15 k
// keys copies each distinct key once — a row that repeats a key allocates
// nothing — in two partitions and in eight.
func TestJoinBuildCopiesKeysOnce(t *testing.T) {
	const rows, keys = 60000, 15000
	rel := &relation{cols: []colInfo{{table: "b", name: "k"}}}
	for i := 0; i < rows; i++ {
		rel.rows = append(rel.rows, []value.Value{value.NewStr(fmt.Sprintf("key-%05d", i%keys))})
	}
	on := []ast.Expr{&ast.ColumnRef{Table: "b", Column: "k"}}
	e := New(storage.NewCatalog())
	for _, batch := range []int{rows, 1024} { // two morsels (partitions), or eight
		e.batchSize = batch
		c := &execCtx{eng: e, stats: &Stats{}}
		var b *joinBuild
		allocs := testing.AllocsPerRun(3, func() {
			var err error
			if b, err = c.buildJoinMap(rel, on, nil, 0); err != nil {
				t.Fatal(err)
			}
		})
		got, err := b.lookup(c, value.AppendKey(nil, value.NewStr("key-00042")))
		if err != nil || len(got) != rows/keys {
			t.Fatalf("batch %d: lookup found %d rows, %v", batch, len(got), err)
		}
		if allocs > keys*1.1 {
			t.Errorf("batch %d, %d partitions: a %d-row build over %d keys allocated %.0f times, want about one per key",
				batch, len(b.parts), rows, keys, allocs)
		}
		t.Logf("batch %d, %d partitions: %.0f allocations", batch, len(b.parts), allocs)
	}
}

// probeFixture builds o(k, v) of n rows, k in 0..99 and v in 0..6, and
// i(ik, iv) of 100 rows keyed 0..99 with iv = 100 + ik: every outer row
// finds exactly one inner row, whose iv no v equals. i declares a hash
// index on ik when indexes is set, so its builds are index-probed.
func probeFixture(t *testing.T, n int, indexes bool) *Engine {
	t.Helper()
	cat := storage.NewCatalog()
	o, err := cat.Create(storage.Schema{Name: "o", Cols: []storage.Column{{Name: "k", Type: storage.TInt}, {Name: "v", Type: storage.TInt}}})
	if err != nil {
		t.Fatal(err)
	}
	in, err := cat.Create(storage.Schema{Name: "i", Cols: []storage.Column{{Name: "ik", Type: storage.TInt}, {Name: "iv", Type: storage.TInt}}})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		o.MustInsert([]value.Value{value.NewInt(int64(r % 100)), value.NewInt(int64(r % 7))})
	}
	for r := 0; r < 100; r++ {
		in.MustInsert([]value.Value{value.NewInt(int64(r)), value.NewInt(int64(100 + r))})
	}
	if indexes {
		if err := in.DeclareIndex("ik", storage.HashIndex); err != nil {
			t.Fatal(err)
		}
	}
	return New(cat)
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestSubqueryProbeAllocs: a correlated EXISTS or IN renders each outer
// row's probe key into its context's buffer, so a probe allocates no key.
// An index-probed build fetches a probe's rows into the context's row
// buffer, so it allocates no more than a hashed one. What a probe still
// allocates is pinned: an EXISTS with a residual predicate one environment
// for its candidate rows. Measured as the
// allocations of a statement over 4 000 outer rows less those over 2 000,
// per extra row; no outer row survives, so no result row allocates.
func TestSubqueryProbeAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation counts: the race detector changes what escapes")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		sql string
		// perRow bounds the allocations per outer row: hashed, index-probed
		hashed, probed float64
	}{
		{"SELECT COUNT(*) FROM o WHERE NOT EXISTS (SELECT * FROM i WHERE i.ik = o.k)", 0.05, 0.05},
		{"SELECT COUNT(*) FROM o WHERE NOT EXISTS (SELECT * FROM i WHERE i.ik = o.k AND i.iv > o.v)", 1.05, 1.05},
		{"SELECT COUNT(*) FROM o WHERE o.v IN (SELECT iv FROM i WHERE i.ik = o.k)", 0.05, 0.05},
	} {
		for _, indexes := range []bool{false, true} {
			allocs := func(n int) float64 {
				e := probeFixture(t, n, indexes)
				return testing.AllocsPerRun(5, func() {
					q, err := sqlparser.Parse(tc.sql)
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.Execute(q, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got := res.Rows[0][0].I; got != 0 {
						t.Fatalf("%s: %d outer rows survive, want none", tc.sql, got)
					}
				})
			}
			perRow, bound := (allocs(4000)-allocs(2000))/2000, tc.hashed
			if indexes {
				bound = tc.probed
			}
			if perRow > bound {
				t.Errorf("indexes %v, %s: %.3f allocations per outer row, want at most %.2f", indexes, tc.sql, perRow, bound)
			}
			t.Logf("indexes %v, %s: %.3f allocations per outer row", indexes, tc.sql, perRow)
		}
	}
}

// TestJoinBuildKeyArenaSizedOnce: each morsel of a hashed join build sizes
// its key arena for its rows up front — once more when a key outgrows the
// first guess — instead of growing it by appends, and each partition sizes
// its row list once. A build of 60 k distinct ~20-byte composite keys then
// allocates its key strings and map, and a few more objects per morsel; an
// append-grown arena and row list took some 30 more per morsel (measured:
// 426 and 790 beyond the keys at two and eight morsels, against 328 and 481).
func TestJoinBuildKeyArenaSizedOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts: the race detector changes what escapes")
	}
	const rows = 60000
	rel := &relation{cols: []colInfo{{table: "b", name: "k"}, {table: "b", name: "pad"}}}
	pad := value.NewBytes([]byte("sixteen-byte-pad"))
	for i := 0; i < rows; i++ {
		rel.rows = append(rel.rows, []value.Value{value.NewInt(int64(i)), pad})
	}
	on := []ast.Expr{&ast.ColumnRef{Table: "b", Column: "k"}, &ast.ColumnRef{Table: "b", Column: "pad"}}
	e := New(storage.NewCatalog())
	for _, batch := range []int{rows, 1024} { // two morsels, or eight
		e.batchSize = batch
		c := &execCtx{eng: e, stats: &Stats{}}
		var b *joinBuild
		allocs := testing.AllocsPerRun(3, func() {
			var err error
			if b, err = c.buildJoinMap(rel, on, nil, 0); err != nil {
				t.Fatal(err)
			}
		})
		parts := float64(len(b.parts))
		if extra, bound := allocs-rows, 300+35*parts; extra > bound {
			t.Errorf("batch %d, %.0f morsels: %.0f allocations beyond one per key, want at most %.0f", batch, parts, extra, bound)
		}
		t.Logf("batch %d, %.0f morsels: %.0f allocations beyond one per key", batch, parts, allocs-rows)
	}
}

// TestJoinBuildSlotMapSizedByKeys: a hashed build over few distinct keys
// sizes its slot maps for the keys its table's statistics estimate
// (keyNDV), not for its rows. b holds 60 000 rows over the keys i % 4; a
// build sized per row would allocate about 3 MB of map for four entries.
func TestJoinBuildSlotMapSizedByKeys(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bytes: the race detector changes what escapes")
	}
	const rows = 60000
	cat := storage.NewCatalog()
	b, err := cat.Create(storage.Schema{Name: "b", Cols: []storage.Column{{Name: "k", Type: storage.TInt}, {Name: "pad", Type: storage.TBytes}}})
	if err != nil {
		t.Fatal(err)
	}
	pad := value.NewBytes([]byte("sixteen-byte-pad"))
	for i := 0; i < rows; i++ {
		b.MustInsert([]value.Value{value.NewInt(int64(i % 4)), pad})
	}
	e := New(cat)
	on := []ast.Expr{&ast.ColumnRef{Table: "b", Column: "k"}}
	for _, batch := range []int{rows, 1024} { // two morsels, or eight
		e.batchSize = batch
		q := sqlparser.MustParse(`SELECT k, pad FROM b`)
		c := e.newCtx(q, nil, batch)
		if err := c.resolve(q); err != nil {
			t.Fatal(err)
		}
		p, err := c.prepare(q, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		ndv := keyNDV(p, on)
		if ndv != 4 {
			t.Fatalf("batch %d: estimated %d distinct keys, want 4", batch, ndv)
		}
		right, err := c.drainSource(p)
		if err != nil {
			t.Fatal(err)
		}
		perBuild := func(ndv int64) uint64 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			const runs = 3
			for r := 0; r < runs; r++ {
				if _, err := c.buildJoinMap(right, on, nil, ndv); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return (after.TotalAlloc - before.TotalAlloc) / runs
		}
		sized, unsized := perBuild(ndv), perBuild(0)
		// Per row: the key window (24 B), its 8-byte key, the partition id,
		// the row's slot and its arena entry (24 B) — about 64 B, not counting maps.
		if bound := uint64(80 * rows); sized > bound {
			t.Errorf("batch %d: a %d-row build over 4 keys allocated %d B, want at most %d (sized per row: %d B)",
				batch, rows, sized, bound, unsized)
		}
		t.Logf("batch %d: %d B per build sized by keys, %d B sized by rows", batch, sized, unsized)
	}
}
