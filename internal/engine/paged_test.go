package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ast"
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
//	                                             hash indexes on e_id and e_cat,
//	                                             an ordered one on e_val
//	dim(d_pad, d_w, d_cat)                       hash indexes on d_w AND d_cat
//
// declaring the indexes only when indexes is set. A disk catalog zones
// e_pad, e_id, e_val and d_w (pagedZoned), so filtered scans skip pages. Both tables lead with a
// column no query names, so a pruned layout's positions never coincide with
// schema positions, and dim's two hash indexes make a join build served from
// the wrong one return wrong rows.
func pagedFixture(t *testing.T, cat *storage.Catalog, indexes bool, cold map[string][]string) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ev, err := cat.CreateSplit(storage.Schema{
		Name: "ev",
		Cols: []storage.Column{
			{Name: "e_pad", Type: storage.TBytes},
			{Name: "e_id", Type: storage.TInt},
			{Name: "e_cat", Type: storage.TStr},
			{Name: "e_val", Type: storage.TInt},
			{Name: "e_opt", Type: storage.TInt},
			{Name: "e_ok", Type: storage.TBool},
		},
	}, cold["ev"], pagedZoned["ev"])
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
	dim, err := cat.CreateSplit(storage.Schema{
		Name: "dim",
		Cols: []storage.Column{
			{Name: "d_pad", Type: storage.TInt},
			{Name: "d_w", Type: storage.TInt},
			{Name: "d_cat", Type: storage.TStr},
		},
	}, cold["dim"], pagedZoned["dim"])
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
	if indexes {
		for _, ix := range []struct {
			t    *storage.Table
			col  string
			kind storage.IndexKind
		}{
			{ev, "e_id", storage.HashIndex}, {ev, "e_cat", storage.HashIndex}, {ev, "e_val", storage.OrderedIndex},
			{dim, "d_w", storage.HashIndex}, {dim, "d_cat", storage.HashIndex},
		} {
			if err := ix.t.DeclareIndex(ix.col, ix.kind); err != nil {
				t.Fatal(err)
			}
		}
	}
	return New(cat)
}

// pagedZoned is the fixture's zoned columns: a fixed Bytes one, the
// ascending id, e_val (whose NULLs leave some pages tagged, with no zone)
// and a dimension key.
var pagedZoned = map[string][]string{"ev": {"e_pad", "e_id", "e_val"}, "dim": {"d_w"}}

// pagedEngines returns the fixture on the in-memory backend and on disk
// segments of 512-byte pages behind a 2-page cache (ev spans ~40 pages and
// keeps an unsealed tail), with its indexes declared when indexes is set.
func pagedEngines(t *testing.T, indexes bool) (mem, disk *Engine) {
	t.Helper()
	return pagedFixture(t, storage.NewCatalog(), indexes, nil), pagedDisk(t, indexes, nil)
}

// pagedCold splits the fixture's tables into hot and cold segments: ev's
// cold columns include a join key with a hash index (e_cat), so index
// builds, index-probed builds and filters read the cold segment by row id.
var pagedCold = map[string][]string{"ev": {"e_pad", "e_cat", "e_ok"}, "dim": {"d_pad"}}

// pagedDisk is the fixture on disk segments as pagedEngines lays them out,
// each table's columns cold in a second segment.
func pagedDisk(t *testing.T, indexes bool, cold map[string][]string) *Engine {
	t.Helper()
	cat := storage.NewCatalogWith(storage.BackendConfig{
		Kind: storage.BackendDisk, Dir: t.TempDir(), PageBytes: 512, CacheBytes: 1024,
	})
	t.Cleanup(func() { cat.Close() })
	return pagedFixture(t, cat, indexes, cold)
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
	// Index-served shapes: restricted scan, top-N over an indexed column,
	// indexed build.
	`SELECT e_id, e_pad FROM ev WHERE e_cat = 'bock' AND e_val BETWEEN 100 AND 400`,
	`SELECT e_id, e_ok FROM ev ORDER BY e_val DESC LIMIT 25`,
	`SELECT e_id, d_w FROM ev, dim WHERE e_cat = d_cat`,
	`SELECT d_cat, SUM(e_val), COUNT(*) FROM ev, dim WHERE e_cat = d_cat GROUP BY d_cat ORDER BY d_cat`,
	`SELECT DISTINCT e_cat, e_ok FROM ev LIMIT 5`,
	// Index-probed builds. Fan-out from duplicate keys (~150 ev rows per
	// e_cat), a NULL probe key and one with no postings (dim's NULL and
	// 'stray' rows):
	`SELECT d_w, e_id, e_val FROM dim, ev WHERE d_cat = e_cat`,
	// NULL probe keys (e_val), keys with no postings (e_val >= 600), and 600
	// probes spread over the whole of b, which on disk at batch 7 read the
	// table's size in fetches and switch to one drain partway through:
	`SELECT a.e_id, b.e_cat, b.e_ok FROM ev a, ev b WHERE a.e_val = b.e_id`,
	`SELECT b.e_cat, COUNT(*), MAX(a.e_id) FROM ev a, ev b WHERE a.e_val = b.e_id GROUP BY b.e_cat ORDER BY b.e_cat`,
	// A decorrelated EXISTS over one unfiltered indexed table, answered from
	// the postings with no correlated residual, and with one probed per
	// outer row:
	`SELECT d_w FROM dim WHERE EXISTS (SELECT * FROM ev WHERE e_cat = d_cat)`,
	`SELECT a.e_id FROM ev a WHERE EXISTS (SELECT * FROM ev b WHERE b.e_id = a.e_val AND b.e_opt <> a.e_opt)`,
}

// TestPagedMatchesMem runs every shape on the in-memory catalog, on one disk
// segment per table and on tables split into hot and cold segments
// (pagedCold), across the ⟨GOMAXPROCS, batchSize, declared indexes⟩ grid,
// materialized and streamed: the same rows, rows scanned and index lookups
// on every backend, and with indexes declared the same rows in the same
// order as without.
func TestPagedMatchesMem(t *testing.T) {
	var engines [2][3]*Engine // by indexes: memory, disk, split disk
	for i, idx := range []bool{false, true} {
		engines[i][0], engines[i][1] = pagedEngines(t, idx)
		engines[i][2] = pagedDisk(t, idx, pagedCold)
	}
	for _, sql := range pagedQueries {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		for _, par := range []int{1, 4} {
			for _, batch := range []int{0, 7} {
				var noIdx string // the idx=false memory result
				for i, idx := range []bool{false, true} {
					mem := engines[i][0]
					for _, e := range engines[i] {
						procs(t, par)
						e.batchSize = batch
					}
					want, err := mem.Execute(q, nil)
					if err != nil {
						t.Fatalf("%q in memory: %v", sql, err)
					}
					if !idx {
						noIdx = renderAccess(want)
					} else if renderAccess(want) != noIdx {
						t.Fatalf("%q (par %d batch %d): memory result with indexes differs from the one without", sql, par, batch)
					}
					for k, disk := range engines[i][1:] {
						pagedMatches(t, q, sql, fmt.Sprintf("par %d batch %d idx %v split %v", par, batch, idx, k == 1), disk, want)
					}
				}
			}
		}
	}
}

// pagedMatches runs q on disk, materialized and streamed, and compares it
// with want, the in-memory result: rows, rows scanned and index lookups.
func pagedMatches(t *testing.T, q *ast.Query, sql, at string, disk *Engine, want *Result) {
	t.Helper()
	got, err := disk.Execute(q, nil)
	if err != nil {
		t.Fatalf("%q on disk (%s): %v", sql, at, err)
	}
	if renderAccess(got) != renderAccess(want) {
		t.Fatalf("%q (%s): disk result differs from memory\n got: %.300s\nwant: %.300s",
			sql, at, renderAccess(got), renderAccess(want))
	}
	if got.Stats.RowsScanned != want.Stats.RowsScanned || got.Stats.IndexLookups != want.Stats.IndexLookups {
		t.Errorf("%q (%s): disk scanned %d rows with %d index lookups, memory %d with %d",
			sql, at, got.Stats.RowsScanned, got.Stats.IndexLookups, want.Stats.RowsScanned, want.Stats.IndexLookups)
	}
	rs, err := disk.ExecuteStream(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	streamed := &Result{Cols: rs.Cols()}
	for {
		b, err := rs.Next()
		if err != nil {
			t.Fatalf("%q streamed from disk (%s): %v", sql, at, err)
		}
		if b == nil {
			break
		}
		streamed.Rows = append(streamed.Rows, b...)
	}
	if renderAccess(streamed) != renderAccess(want) {
		t.Fatalf("%q (%s): streamed disk result differs from memory", sql, at)
	}
}

// TestPagedErrorsMatchMem: name resolution fails the same way over pruned
// layouts as over full ones.
func TestPagedErrorsMatchMem(t *testing.T) {
	mem, disk := pagedEngines(t, false)
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
	mem, disk := pagedEngines(t, false)
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
		{`SELECT e_id FROM ev WHERE EXISTS (SELECT * FROM dim)`, []int{1}},
		{`SELECT e_id FROM ev WHERE NOT EXISTS (SELECT * FROM dim WHERE d_w = e_opt)`, []int{1, 4}},
		{`SELECT e_id FROM ev WHERE EXISTS (SELECT * FROM (SELECT * FROM dim) x)`, nil},
	} {
		q, err := sqlparser.Parse(c.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", c.sql, err)
		}
		src, layout, err := disk.newCtx(q, nil, math.MaxInt).fromSource(&q.From[0], nil)
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
		mc := mem.newCtx(q, nil, math.MaxInt)
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
	mem, _ := pagedEngines(t, false)
	_, disk := pagedEngines(t, true)
	const sql = `SELECT e_id, d_w FROM ev, dim WHERE e_cat = d_cat`
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mem.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
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

// TestPagedProbedBuildSwitch: an index-probed build of ev probed at batch 7
// by 600 keys spread over the table fetches on both backends until, on disk,
// its random fetches have read the table's size; the rest of the probe
// stream then reads one drain. In memory a row costs its share of the
// table's bytes, so the build never drains before every row is needed.
// Rows scanned count the build rows reached either way, and agree.
func TestPagedProbedBuildSwitch(t *testing.T) {
	mem, disk := pagedEngines(t, true)
	q := sqlparser.MustParse(`SELECT a.e_id, b.e_cat FROM ev a, ev b WHERE a.e_val = b.e_id`)
	var scanned []int64
	for _, e := range []*Engine{mem, disk} {
		procs(t, 1)
		c := e.newCtx(q, nil, 7)
		if err := c.resolve(q); err != nil {
			t.Fatal(err)
		}
		p, err := c.prepare(q, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		ix := p.steps[0].build.ix
		if ix == nil {
			t.Fatal("the build of b is not index-probed")
		}
		if c.stats.RowsScanned != 0 {
			t.Fatalf("preparing the probed build scanned %d rows", c.stats.RowsScanned)
		}
		if _, err := drain(c.stream(p, 1, p.ownedChain)); err != nil {
			t.Fatal(err)
		}
		drained := ix.all != nil
		if want := e == disk; drained != want || len(ix.rows) == 0 {
			t.Errorf("disk %v: drained %v after fetching %d rows, want drained %v after some fetches", e == disk, drained, len(ix.rows), want)
		}
		scanned = append(scanned, c.stats.RowsScanned-600) // minus the probe side's scan
	}
	if scanned[0] != scanned[1] || scanned[0] <= 0 || scanned[0] >= 600 {
		t.Errorf("build rows scanned: memory %d, disk %d; want equal, and fewer than the table", scanned[0], scanned[1])
	}
}

// TestPagedBareExistsReadsNoRow: a decorrelated EXISTS with no residual over
// an index-probed build is answered from the postings alone, on both
// backends: the statement scans dim and reads no row of ev.
func TestPagedBareExistsReadsNoRow(t *testing.T) {
	scan, _ := pagedEngines(t, false)
	mem, disk := pagedEngines(t, true)
	q := sqlparser.MustParse(`SELECT d_w FROM dim WHERE NOT EXISTS (SELECT * FROM ev WHERE e_cat = d_cat)`)
	want, err := scan.Execute(q, nil) // no index: ev drained and hashed
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{mem, disk} {
		res, err := e.Execute(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		dim, _ := e.Cat.Table("dim")
		if res.Stats.RowsScanned != int64(dim.NumRows()) || res.Stats.IndexLookups != 1 {
			t.Errorf("disk %v: %d rows scanned with %d index lookups; want dim's %d rows and 1 lookup",
				e == disk, res.Stats.RowsScanned, res.Stats.IndexLookups, dim.NumRows())
		}
		if len(res.Rows) != 3 || renderAccess(res) != renderAccess(want) { // both 'stray' rows and the NULL one
			t.Errorf("disk %v: %s, want the 3 rows without indexes: %s", e == disk, renderAccess(res), renderAccess(want))
		}
	}
}

// TestPagedFilteredScanEdges: the filter a paged scan applies as it reads
// agrees with memory at GOMAXPROCS 1 and 2 (pagedAgree) when the first
// ranges keep no row — a scan must move on to the next range rather than end
// its morsel — and when the filter is a constant or reads no column of the
// table. A filter that fails returns its own error, not a
// *storage.SegmentError.
func TestPagedFilteredScanEdges(t *testing.T) {
	mem, disk := pagedEngines(t, false)
	for _, sql := range []string{
		`SELECT e_id, e_cat FROM ev WHERE e_id >= 590`,
		`SELECT e_id FROM ev WHERE e_id > 580 AND e_ok`,
		`SELECT COUNT(*) FROM ev WHERE e_id >= 599`,
		`SELECT e_id FROM ev WHERE 1 = 1`,
		`SELECT e_id FROM ev WHERE 1 = 0`,
		`SELECT COUNT(*) FROM ev WHERE 2 > 1`,
		`SELECT COUNT(*), MAX(e_id) FROM ev WHERE 1 = 1`,
	} {
		pagedAgree(t, mem, disk, sql)
	}

	q := sqlparser.MustParse(`SELECT e_id FROM ev WHERE substring(e_cat, 1, e_opt - 3) = 'a'`)
	for _, par := range []int{1, 2} {
		for _, e := range []*Engine{mem, disk} {
			procs(t, par)
			e.batchSize = 7
			_, err := e.Execute(q, nil)
			if !errors.Is(err, ErrNegativeSubstringLength) || errors.As(err, new(*storage.SegmentError)) {
				t.Errorf("par %d: a failing filter returned %v, want ErrNegativeSubstringLength", par, err)
			}
		}
	}
}

// TestPagedFilterCorrelatedSameTable: a filter holding a correlated
// subquery that is re-opened per row over the same paged table, on the
// 2-page cache, agrees with memory. The inner scans read and evict pages
// while the outer scan holds its page pinned inside Keep; a storage lock
// held across Keep would deadlock here.
func TestPagedFilterCorrelatedSameTable(t *testing.T) {
	mem, disk := pagedEngines(t, false)
	pagedAgree(t, mem, disk, `SELECT a.e_id FROM ev a WHERE a.e_id < 120 AND a.e_val > `+
		`(SELECT AVG(b.e_val) FROM ev b WHERE b.e_cat = a.e_cat AND b.e_id < a.e_id)`)
}

// pagedAgree runs sql on both catalogs at GOMAXPROCS 1 and 2 and batch
// sizes 0 and 7, drained and streamed, and requires the same rows and rows
// scanned, and no empty streamed batch.
func pagedAgree(t *testing.T, mem, disk *Engine, sql string) {
	t.Helper()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	for _, par := range []int{1, 2} {
		for _, batch := range []int{0, 7} {
			for _, e := range []*Engine{mem, disk} {
				procs(t, par)
				e.batchSize = batch
			}
			want, err := mem.Execute(q, nil)
			if err != nil {
				t.Fatalf("%q in memory: %v", sql, err)
			}
			got, err := disk.Execute(q, nil)
			if err != nil {
				t.Fatalf("%q on disk (par %d batch %d): %v", sql, par, batch, err)
			}
			if renderAccess(got) != renderAccess(want) || got.Stats.RowsScanned != want.Stats.RowsScanned {
				t.Fatalf("%q (par %d batch %d): disk returned %.300s after %d rows scanned, memory %.300s after %d",
					sql, par, batch, renderAccess(got), got.Stats.RowsScanned, renderAccess(want), want.Stats.RowsScanned)
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
				if len(b) == 0 {
					t.Fatalf("%q streamed an empty batch", sql)
				}
				streamed.Rows = append(streamed.Rows, b...)
			}
			if renderAccess(streamed) != renderAccess(want) {
				t.Fatalf("%q (par %d batch %d): streamed disk result differs from memory", sql, par, batch)
			}
		}
	}
}

// TestPagedFullScanChargesSegment: a full scan of a paged table charges
// exactly Table.ScanBytes, at every batch size and morsel count — a page
// that a batch or morsel boundary cuts is charged once, to the read holding
// its first row — filtered or not.
func TestPagedFullScanChargesSegment(t *testing.T) {
	_, disk := pagedEngines(t, false)
	ev, err := disk.Cat.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`SELECT COUNT(*) FROM ev`,
		`SELECT e_id, e_cat FROM ev WHERE e_val < 500`,
		`SELECT COUNT(*) FROM ev WHERE e_val < 500 AND e_cat IS NOT NULL`,
	} {
		q := sqlparser.MustParse(sql)
		for _, par := range []int{1, 2} {
			for _, batch := range []int{0, 7, 50} {
				procs(t, par)
				disk.batchSize = batch
				res, err := disk.Execute(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Stats.BytesScanned; got != ev.ScanBytes(nil) {
					t.Errorf("%s (par %d, batch %d): charged %d bytes, the segment is %d", sql, par, batch, got, ev.ScanBytes(nil))
				}
			}
		}
	}
}
