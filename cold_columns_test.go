package monomi

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Cold segments: on the disk backend, each encrypted table keeps the columns
// its workload's plans never read in a second segment (storage.splitStore),
// read by row id only by a statement that names them. These tests hold the
// two halves of that contract: an ad hoc statement over cold columns returns
// what plaintext and the in-memory deployment return, in process and served
// over TCP; and the workload itself never pins a cold page.

// coldDatabase is items(i_id, i_cat, i_qty, i_price, i_day, i_note) and
// kinds(k_name, k_region, k_tier, k_memo), seeded. coldWorkload names no
// i_day, i_note or k_memo, so their encryptions are cold; i_note and k_memo
// hold NULLs.
func coldDatabase() *Database {
	rng := rand.New(rand.NewSource(diffSeed + 55))
	db := NewDatabase()
	db.MustCreateTable("items",
		Col("i_id", Int), Col("i_cat", String), Col("i_qty", Int),
		Col("i_price", Int), Col("i_day", Date), Col("i_note", String))
	cats := []string{"ale", "bock", "cider", "dubbel"}
	for i := 0; i < 1500; i++ {
		var note any
		if rng.Intn(5) > 0 {
			note = fmt.Sprintf("note %d of %d", rng.Intn(300), i%7)
		}
		day := fmt.Sprintf("199%d-%02d-%02d", 5+rng.Intn(3), 1+rng.Intn(12), 1+rng.Intn(28))
		db.MustInsert("items", i, cats[rng.Intn(len(cats))], rng.Intn(50), rng.Intn(1000), day, note)
	}
	db.MustCreateTable("kinds",
		Col("k_name", String), Col("k_region", String), Col("k_tier", Int), Col("k_memo", String))
	for i, name := range append(cats, "stray") {
		var memo any
		if i%2 == 0 {
			memo = "memo " + name
		}
		db.MustInsert("kinds", name, []string{"north", "south"}[i%2], i, memo)
	}
	return db
}

var coldWorkload = Workload{
	"by_cat": "SELECT i_cat, SUM(i_price), COUNT(*) FROM items GROUP BY i_cat",
	"cheap":  "SELECT i_id, i_price FROM items WHERE i_qty < 10 AND i_price > 500",
	"join":   "SELECT i_id, k_region FROM items, kinds WHERE i_cat = k_name AND k_tier < 3",
}

// coldStatements read cold columns: projected, under * (of one table and of
// a join), in a residual beside a sargable predicate on a hot column, as a
// sort key, as a group key, and across a join.
var coldStatements = []diffQuery{
	{"SELECT i_id, i_note FROM items WHERE i_id < 40", false},
	{"SELECT * FROM items WHERE i_qty < 3", false},
	{"SELECT i_id, i_note FROM items WHERE i_qty < 10 AND i_note IS NOT NULL AND i_note LIKE '%of 3'", false},
	{"SELECT i_id, i_day, i_note FROM items ORDER BY i_day DESC, i_id LIMIT 15", true},
	{"SELECT i_day, COUNT(*), MIN(i_note) FROM items WHERE i_qty < 20 GROUP BY i_day", false},
	{"SELECT i_id, k_memo, i_note FROM items, kinds WHERE i_cat = k_name AND k_tier < 3 AND i_id < 200", false},
	{"SELECT * FROM items, kinds k WHERE i_cat = k.k_name AND i_id < 30", false},
}

// coldSystem encrypts coldDatabase on backend with small pages and a small
// block cache on disk.
func coldSystem(t *testing.T, backend string) *System {
	t.Helper()
	opts := diffOptions()
	opts.Backend = backend
	if backend == "disk" {
		opts.DataDir = t.TempDir()
		opts.pageBytes = 1024
		opts.BlockCacheBytes = 16 << 10
	}
	sys, err := Encrypt(coldDatabase(), coldWorkload, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// coldColumns is the cold set of sys's encrypted tables: "table: columns"
// per split table, sorted.
func coldColumns(sys *System) []string {
	var out []string
	cat := sys.dep.DB.Cat
	for _, name := range cat.Names() {
		tb, err := cat.Table(name)
		if err != nil {
			continue
		}
		if cold := tb.ColdColumns(); cold != nil {
			out = append(out, name+": "+strings.Join(cold, " "))
		}
	}
	sort.Strings(out)
	return out
}

// coldPins is the cold-segment page lookups, hit or miss, of sys's tables.
func coldPins(sys *System) int64 {
	var n int64
	cat := sys.dep.DB.Cat
	for _, name := range cat.Names() {
		if tb, err := cat.Table(name); err == nil {
			io := tb.ColdIO()
			n += io.CacheHits + io.CacheMisses
		}
	}
	return n
}

// TestColdColumnsDifferential: ad hoc statements over cold columns on a
// split disk deployment, in process and served over loopback TCP, equal
// plaintext and the in-memory deployment — and do read the cold segments.
func TestColdColumnsDifferential(t *testing.T) {
	mem, disk := coldSystem(t, "mem"), coldSystem(t, "disk")
	cold := strings.Join(coldColumns(disk), "\n")
	for _, want := range []string{"i_day_rnd", "i_note_rnd", "k_memo_rnd"} {
		if !strings.Contains(cold, want) {
			t.Fatalf("%s is not cold; the cold set is\n%s", want, cold)
		}
	}
	if got := coldColumns(mem); got != nil {
		t.Fatalf("the in-memory deployment split %v", got)
	}
	srv, err := disk.Serve("127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := disk.ConnectRemote(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	for _, q := range coldStatements {
		plain, err := mem.QueryPlaintext(q.sql)
		if err != nil {
			t.Fatalf("plaintext %s: %v", q.sql, err)
		}
		want := strings.Join(canonicalRows(t, plain.Data, q.ordered), "\n")
		if len(plain.Data) == 0 {
			t.Fatalf("%s: no rows; the statement tests nothing", q.sql)
		}
		for name, sys := range map[string]*System{"memory": mem, "disk": disk, "disk over TCP": remote} {
			before := coldPins(disk)
			r, err := sys.Query(q.sql)
			if err != nil {
				t.Fatalf("%s %s: %v", name, q.sql, err)
			}
			if got := strings.Join(canonicalRows(t, r.Data, q.ordered), "\n"); got != want {
				t.Errorf("%s: %s diverges from plaintext:\n%s\nvs\n%s", q.sql, name, got, want)
			}
			if name != "memory" && coldPins(disk) == before {
				t.Errorf("%s: %s pinned no cold page", q.sql, name)
			}
		}
	}
}

// TestWorkloadReadsNoColdPage: a disk-backed TPC-H deployment at the smoke
// scale factor, designed for the supported queries, pins no cold-segment
// page — hit or miss — running all of them, and its cold set is the one
// pinned here: a design or plan change that moves a column across the split
// shows up as a diff.
func TestWorkloadReadsNoColdPage(t *testing.T) {
	db, err := TPCH(0.0005, 1)
	if err != nil {
		t.Fatal(err)
	}
	wl := Workload{}
	for _, qn := range TPCHQueries() {
		wl[fmt.Sprintf("Q%02d", qn)] = mustTPCH(qn)
	}
	opts := DefaultOptions()
	opts.PaillierBits = 256
	opts.Backend, opts.DataDir, opts.BlockCacheBytes = "disk", t.TempDir(), 64<<10
	sys, err := Encrypt(db, wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	want := []string{
		"lineitem: l_linenumber_rnd l_commitdate_rnd l_receiptdate_rnd l_comment_rnd",
		"nation: n_comment_rnd",
		"orders: o_clerk_rnd o_comment_rnd",
		"part: p_retailprice_rnd p_comment_rnd",
		"partsupp: ps_comment_rnd",
		"region: r_comment_rnd",
	}
	if got := coldColumns(sys); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("cold set:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, qn := range TPCHQueries() {
		if _, err := sys.Query(mustTPCH(qn)); err != nil {
			t.Fatalf("Q%02d: %v", qn, err)
		}
		if n := coldPins(sys); n != 0 {
			t.Fatalf("Q%02d pinned cold pages (%d lookups so far)", qn, n)
		}
	}
	if st := sys.Stats(); st.PageReads == 0 {
		t.Fatalf("the workload read no page at all: %+v", st)
	}
}
