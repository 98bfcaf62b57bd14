package monomi

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/enc"
	"repro/internal/experiments"
)

func exampleDB(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase()
	db.MustCreateTable("orders",
		Col("o_id", Int), Col("o_cust", String), Col("o_total", Int), Col("o_date", Date))
	rows := []struct {
		id    int
		cust  string
		total int
		date  string
	}{
		{1, "alice", 120, "1995-01-15"},
		{2, "bob", 80, "1995-06-01"},
		{3, "alice", 300, "1996-02-20"},
		{4, "carol", 50, "1996-07-04"},
	}
	for _, r := range rows {
		db.MustInsert("orders", r.id, r.cust, r.total, r.date)
	}
	return db
}

func exampleSystem(t testing.TB) *System {
	t.Helper()
	opts := DefaultOptions()
	opts.PaillierBits = 256 // fast tests
	sys, err := Encrypt(exampleDB(t), Workload{
		"totals": "SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust",
		"range":  "SELECT o_id FROM orders WHERE o_total > 100",
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestFacadeQueryMatchesPlaintext(t *testing.T) {
	sys := exampleSystem(t)
	sql := "SELECT o_cust, SUM(o_total) AS t FROM orders GROUP BY o_cust ORDER BY t DESC"
	encRes, err := sys.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.QueryPlaintext(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(encRes.Data) != len(plain.Data) {
		t.Fatalf("rows: %d vs %d", len(encRes.Data), len(plain.Data))
	}
	for i := range plain.Data {
		for j := range plain.Data[i] {
			if encRes.Data[i][j] != plain.Data[i][j] {
				t.Errorf("row %d col %d: %v vs %v", i, j, encRes.Data[i][j], plain.Data[i][j])
			}
		}
	}
	if encRes.Data[0][0] != "alice" || encRes.Data[0][1] != int64(420) {
		t.Errorf("top row = %v", encRes.Data[0])
	}
	if encRes.PlanText == "" || encRes.Total() <= 0 {
		t.Error("timings and plan text should be populated")
	}
}

// TestRowsTotalIsMeasuredWall: Rows.Total is the wall time of the call that
// produced the rows — on the encrypted path, a prepared statement and the
// plaintext baseline alike — so it fits inside a clock read around the call
// and holds the measured client work.
func TestRowsTotalIsMeasuredWall(t *testing.T) {
	sys := exampleSystem(t)
	stmt, err := sys.Prepare(`SELECT o_id FROM orders WHERE o_cust = :c`)
	if err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust`
	for name, call := range map[string]func() (*Rows, error){
		"Query":          func() (*Rows, error) { return sys.Query(sql) },
		"Stmt.Query":     func() (*Rows, error) { return stmt.Query(map[string]any{"c": "alice"}) },
		"QueryPlaintext": func() (*Rows, error) { return sys.QueryPlaintext(sql) },
	} {
		start := time.Now()
		rows, err := call()
		outer := time.Since(start).Seconds()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rows.Total() <= 0 || rows.Total() > outer || rows.ClientTime > rows.Total() {
			t.Errorf("%s: Total %.6fs, ClientTime %.6fs, call took %.6fs", name, rows.Total(), rows.ClientTime, outer)
		}
	}
}

func TestFacadeDesignCensus(t *testing.T) {
	sys := exampleSystem(t)
	census := sys.Design()
	if len(census) == 0 {
		t.Fatal("design should not be empty")
	}
	schemes := map[string]bool{}
	for _, c := range census {
		schemes[c.Scheme] = true
		if c.Table != "orders" {
			t.Errorf("unexpected table %q", c.Table)
		}
	}
	// At four rows the cost model may rightly skip HOM (client-side
	// folding is cheaper); DET and OPE are unconditional here.
	for _, want := range []string{"DET", "OPE"} {
		if !schemes[want] {
			t.Errorf("design should contain a %s item (workload needs it)", want)
		}
	}
	vars, cons, plain, encBytes := sys.DesignStats()
	if plain <= 0 || encBytes <= plain {
		t.Errorf("sizes: plain=%d enc=%d", plain, encBytes)
	}
	_ = vars
	_ = cons
}

func TestFacadeErrors(t *testing.T) {
	db := exampleDB(t)
	if _, err := Encrypt(db, Workload{}, Options{}); err == nil {
		t.Error("missing master key should fail")
	}
	if err := db.Insert("missing", 1); err == nil {
		t.Error("unknown table should fail")
	}
	if err := db.Insert("orders", 1); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := db.Insert("orders", "x", "y", "z", "w"); err == nil {
		t.Error("type mismatch should fail")
	}
	if err := ValidateSQL("SELECT FROM"); err == nil {
		t.Error("bad SQL should fail validation")
	}
	if err := ValidateSQL("SELECT 1 FROM t"); err != nil {
		t.Errorf("good SQL rejected: %v", err)
	}
	sys := exampleSystem(t)
	if _, err := sys.Query("SELECT nope FROM orders"); err == nil {
		t.Error("unknown column should fail")
	}
	if _, ok := TPCHQuery(13); ok {
		t.Error("Q13 is unsupported")
	}
	if q, ok := TPCHQuery(1); !ok || !strings.Contains(q, "lineitem") {
		t.Error("Q1 text expected")
	}
	if len(TPCHQueries()) != 19 {
		t.Error("19 supported queries")
	}
}

func TestFacadeTPCH(t *testing.T) {
	db, err := TPCH(0.001, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.PaillierBits = 256
	sys, err := Encrypt(db, Workload{"q6": mustTPCH(6)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	encRes, err := sys.Query(mustTPCH(6))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.QueryPlaintext(mustTPCH(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(encRes.Data) != 1 || encRes.Data[0][0] != plain.Data[0][0] {
		t.Errorf("Q6: %v vs %v", encRes.Data, plain.Data)
	}
}

// TestFacadeMatchesExperimentHarness holds the two facades over the one
// assembler to each other: monomi.Encrypt under DefaultOptions and
// experiments.Setup(MonomiConfig), given the same master key, key width,
// data and workload labels, must choose the same design, and — once the one
// spec value they pass differently on purpose (secondary indexes; both
// prefilter) is set equal — the same plans.
func TestFacadeMatchesExperimentHarness(t *testing.T) {
	const sf, seed, bits = 0.0005, 7, 256
	cfg := experiments.MonomiConfig(sf)
	cfg.Seed, cfg.PaillierBits = seed, bits
	bench, err := experiments.Setup(cfg)
	if err != nil {
		t.Fatal(err)
	}

	db, err := TPCH(sf, seed)
	if err != nil {
		t.Fatal(err)
	}
	workload := Workload{}
	for _, qn := range TPCHQueries() {
		workload[fmt.Sprintf("Q%02d", qn)] = mustTPCH(qn)
	}
	opts := DefaultOptions()
	opts.MasterKey = []byte("monomi-experiments")
	opts.PaillierBits = bits
	sys, err := Encrypt(db, workload, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	keys := func(items []enc.Item) string {
		out := make([]string, len(items))
		for i := range items {
			out[i] = items[i].Key()
		}
		sort.Strings(out)
		return strings.Join(out, "\n")
	}
	if got, want := keys(sys.dep.Design.Design.Items), keys(bench.Design.Design.Items); got != want {
		t.Fatalf("Encrypt and experiments.Setup chose different designs:\n%s\nvs\n%s", got, want)
	}
	// The harness measures the paper's full-scan system: plan index-free.
	sys.dep.Client.Ctx.Indexes = false
	for _, qn := range []int{1, 6, 18} {
		rows, err := sys.Query(mustTPCH(qn))
		if err != nil {
			t.Fatalf("Q%d facade: %v", qn, err)
		}
		res, err := bench.RunEncrypted(qn)
		if err != nil {
			t.Fatalf("Q%d harness: %v", qn, err)
		}
		if got, want := rows.PlanText, res.Plan.Describe(); got != want {
			t.Errorf("Q%d plans differ:\n%s\nvs\n%s", qn, got, want)
		}
	}
}

func mustTPCH(n int) string {
	q, ok := TPCHQuery(n)
	if !ok {
		panic("unsupported query")
	}
	return q
}

// rareEventSystem encrypts ev(e_id, e_cat): 200 rows, one of them 'rare',
// under a workload whose equality probe the DET hash index serves.
func rareEventSystem(t *testing.T, opts Options) *System {
	t.Helper()
	db := NewDatabase()
	db.MustCreateTable("ev", Col("e_id", Int), Col("e_cat", String))
	for i := 0; i < 200; i++ {
		cat := "common"
		if i == 77 {
			cat = "rare"
		}
		db.MustInsert("ev", i, cat)
	}
	opts.PaillierBits = 256
	sys, err := Encrypt(db, Workload{
		"probe": `SELECT COUNT(*) FROM ev WHERE e_cat = 'rare'`,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// TestFacadeStats checks the observability surface: a selective query over
// an indexed system charges IndexLookups and RowsSkippedByIndex, and
// interning never inflates storage (ratio >= 1).
func TestFacadeStats(t *testing.T) {
	sys := rareEventSystem(t, DefaultOptions())

	if st := sys.Stats(); st.IndexLookups != 0 {
		t.Errorf("fresh system already charged %d lookups", st.IndexLookups)
	}
	r, err := sys.Query(`SELECT COUNT(*) FROM ev WHERE e_cat = 'rare'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Data) != 1 || r.Data[0][0] != int64(1) {
		t.Fatalf("count = %v", r.Data)
	}
	st := sys.Stats()
	if st.IndexLookups == 0 {
		t.Error("selective equality did not probe the index")
	}
	if st.RowsSkippedByIndex != 199 {
		t.Errorf("RowsSkippedByIndex = %d, want 199", st.RowsSkippedByIndex)
	}
	if st.EncBytes <= 0 || st.EncRawBytes < st.EncBytes {
		t.Errorf("interning accounting: raw %d, stored %d", st.EncRawBytes, st.EncBytes)
	}
	if st.InternRatio() < 1 {
		t.Errorf("InternRatio = %g, want >= 1", st.InternRatio())
	}
}

// TestEncryptIgnoresIndexesOption pins index use as a property of every
// deployment Encrypt builds: the deprecated Options.Indexes set false still
// yields a System whose selective query probes the index and returns the
// plaintext rows.
func TestEncryptIgnoresIndexesOption(t *testing.T) {
	opts := DefaultOptions()
	opts.Indexes = false
	sys := rareEventSystem(t, opts)
	const sql = `SELECT e_id FROM ev WHERE e_cat = 'rare'`
	r, err := sys.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.QueryPlaintext(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(r.Data), fmt.Sprint(p.Data); got != want || got != "[[77]]" {
		t.Errorf("rows = %s, plaintext %s, want [[77]]", got, want)
	}
	if st := sys.Stats(); st.IndexLookups == 0 {
		t.Error("Options.Indexes = false turned index probes off")
	}
}

// TestFacadeStatsIndexedInParams pins the index-served IN fast path end to
// end: a prepared `IN (:a, :b)` statement runs warm through the plan cache,
// which hoists the encrypted literals into :cpN wire params — and the DET
// hash index must still probe once per IN element on every warm execution,
// in-process and over the transport.
func TestFacadeStatsIndexedInParams(t *testing.T) {
	db := NewDatabase()
	db.MustCreateTable("ev", Col("e_id", Int), Col("e_cat", String))
	rare := []string{"emerald", "ruby", "topaz"}
	for i := 0; i < 300; i++ {
		cat := "common"
		if i%50 == 0 {
			cat = rare[(i/50)%len(rare)]
		}
		db.MustInsert("ev", i, cat)
	}
	opts := DefaultOptions()
	opts.PaillierBits = 256
	sys, err := Encrypt(db, Workload{
		"probe": `SELECT COUNT(*) FROM ev WHERE e_cat IN ('emerald', 'ruby')`,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv, err := sys.Serve("127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rem, err := sys.ConnectRemote(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	bindings := [][2]string{{"emerald", "ruby"}, {"ruby", "topaz"}, {"topaz", "emerald"}}
	for _, d := range []struct {
		name string
		s    *System
	}{{"inproc", sys}, {"wire", rem}} {
		stmt, err := d.s.Prepare(`SELECT e_id FROM ev WHERE e_cat IN (:a, :b) ORDER BY e_id`)
		if err != nil {
			t.Fatalf("%s prepare: %v", d.name, err)
		}
		d.s.ResetPlanCache()
		prev := sys.Stats().IndexLookups
		for i, b := range bindings {
			res, err := stmt.Query(map[string]any{"a": b[0], "b": b[1]})
			if err != nil {
				t.Fatalf("%s exec %d: %v", d.name, i, err)
			}
			plain, err := sys.QueryPlaintext(fmt.Sprintf(
				`SELECT e_id FROM ev WHERE e_cat IN ('%s', '%s') ORDER BY e_id`, b[0], b[1]))
			if err != nil {
				t.Fatal(err)
			}
			got := canonicalRows(t, res.Data, true)
			want := canonicalRows(t, plain.Data, true)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%s exec %d diverges from plaintext:\n%v\nvs\n%v", d.name, i, got, want)
			}
			if i > 0 && !res.PlanCacheHit {
				t.Errorf("%s exec %d: warm IN execution missed the plan cache", d.name, i)
			}
			st := sys.Stats()
			if st.IndexLookups < prev+2 {
				t.Errorf("%s exec %d: IndexLookups %d -> %d, want one probe per IN element",
					d.name, i, prev, st.IndexLookups)
			}
			prev = st.IndexLookups
		}
		if err := stmt.Close(); err != nil {
			t.Fatalf("%s close: %v", d.name, err)
		}
		if _, err := stmt.Query(map[string]any{"a": "ruby", "b": "topaz"}); !errors.Is(err, ErrStmtClosed) {
			t.Errorf("%s: Query after Close = %v, want ErrStmtClosed", d.name, err)
		}
	}
}
