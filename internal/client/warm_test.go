package client

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/enc"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// The warm statement path: a cached template runs with its decoders,
// resolved RemoteSQL and plan text built at fill time, decodes through
// per-clone memos, and skips the local engine when the residual only
// re-selects what was decoded.

// warmShapes are the bench's hotpath shapes over warmFixture's table: a DET
// index probe returning one row, an OPE range of ~100 rows, and a grouped sum
// folded client-side from ~100 elements.
var warmShapes = []struct {
	name, sql string
	params    func(i int) map[string]value.Value
}{
	{"point", `SELECT e_id, e_val FROM ev WHERE e_id = :id`, func(i int) map[string]value.Value {
		return map[string]value.Value{"id": value.NewInt(int64(i * 7 % warmRows))}
	}},
	{"range", `SELECT e_id, e_val FROM ev WHERE e_val BETWEEN :lo AND :hi`, func(i int) map[string]value.Value {
		lo := int64(i * 13 % 980)
		return map[string]value.Value{"lo": value.NewInt(lo), "hi": value.NewInt(lo + 19)}
	}},
	{"sum1", `SELECT SUM(e_val), COUNT(*) FROM ev WHERE e_grp = :g`, func(i int) map[string]value.Value {
		return map[string]value.Value{"g": value.NewInt(int64(i % 50))}
	}},
}

// wideShape returns ~2 500 rows of warmFixture's table: one batch past
// parallelDecodeRows, so a clone decodes it with its peers.
var wideShape = struct {
	sql    string
	params map[string]value.Value
}{`SELECT e_id, e_val FROM ev WHERE e_val < :hi`, map[string]value.Value{"hi": value.NewInt(500)}}

const warmRows = 5000

// warmFixture is an in-process client over ev(e_id, e_grp = i % 50, e_val =
// 7919·i % 1000) with DET and OPE items, whose indexes EncryptDatabase declares.
func warmFixture(t testing.TB) *fixture {
	t.Helper()
	cat := storage.NewCatalog()
	ev, err := cat.Create(storage.Schema{Name: "ev", Cols: []storage.Column{
		{Name: "e_id", Type: storage.TInt}, {Name: "e_grp", Type: storage.TInt}, {Name: "e_val", Type: storage.TInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warmRows; i++ {
		ev.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 50)), value.NewInt(int64(7919 * i % 1000))})
	}
	d := &enc.Design{}
	d.Add(enc.ColumnItem("ev", "e_id", enc.DET, value.Int))
	d.Add(enc.ColumnItem("ev", "e_grp", enc.DET, value.Int))
	d.Add(enc.ColumnItem("ev", "e_val", enc.DET, value.Int))
	d.Add(enc.ColumnItem("ev", "e_val", enc.OPE, value.Int))
	ks, err := enc.NewKeyStore([]byte("test-master-key"), 256)
	if err != nil {
		t.Fatal(err)
	}
	db, err := enc.EncryptDatabase(cat, d, ks)
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Default()
	srv := server.New(db, cfg)
	ctx := planner.NewContext(cat, d, ks, planner.DefaultCostModel(cfg))
	ctx.Indexes = true
	c := New(ks, srv, ctx, cfg)
	return &fixture{cat: cat, client: c, plain: engine.New(cat)}
}

// detColumn returns a one-column DET-integer part over ks and the ciphertexts
// of 0..k-1.
func detColumn(t testing.TB, ks *enc.KeyStore, k int) (*planner.RemotePart, []value.Value) {
	t.Helper()
	it := enc.ColumnItem("t", "a", enc.DET, value.Int)
	part := &planner.RemotePart{Name: "r0", Outputs: []planner.Output{{Name: "a", Mode: planner.OutDecrypt, Item: &it, Kind: value.Int}}}
	cts := make([]value.Value, k)
	for i := range cts {
		cv, err := ks.EncryptValue(&it, value.NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = cv
	}
	return part, cts
}

// TestMemoDecryptsEachCiphertextOnce: a column with k ≤ memoCap distinct
// ciphertexts, in a seeded random order, costs exactly k decryptions when one
// goroutine decodes it, and at most k per worker clone when four do.
func TestMemoDecryptsEachCiphertextOnce(t *testing.T) {
	ks, err := enc.NewKeyStore([]byte("k"), 256)
	if err != nil {
		t.Fatal(err)
	}
	part, cts := detColumn(t, ks, memoCap)
	c := &Client{Keys: ks}
	dec, err := c.newDecoder(part)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 50, 1000, memoCap} {
		rows := make([][]value.Value, 3*k+parallelDecodeRows)
		for i := range rows {
			rows[i] = []value.Value{cts[rng.Intn(k)]}
		}
		for i := 0; i < k; i++ { // every one of the k appears
			rows[rng.Intn(len(rows))][0] = cts[i]
		}
		distinct := map[int64]bool{}
		for _, r := range rows {
			distinct[r[0].I] = true
		}
		for _, p := range []int{1, 4} {
			got, n, err := dec.clone().decode(rows, p)
			if err != nil {
				t.Fatal(err)
			}
			if p == 1 && n != int64(len(distinct)) || n > int64(p*len(distinct)) {
				t.Errorf("k=%d p=%d: %d decryptions of %d distinct ciphertexts", k, p, n, len(distinct))
			}
			for i, r := range got {
				if want, _ := ks.DecryptValue(part.Outputs[0].Item, rows[i][0]); !reflect.DeepEqual(r[0], want) {
					t.Fatalf("k=%d p=%d row %d: %v, want %v", k, p, i, r[0], want)
				}
			}
		}
	}
}

// TestMemoSkipsNullAndRND: NULL cells never reach a memo, and an RND column
// has none — its repeated ciphertext is decrypted every time.
func TestMemoSkipsNullAndRND(t *testing.T) {
	ks, err := enc.NewKeyStore([]byte("k"), 256)
	if err != nil {
		t.Fatal(err)
	}
	det := enc.ColumnItem("t", "a", enc.DET, value.Int)
	rnd := enc.ColumnItem("t", "r", enc.RND, value.Int)
	part := &planner.RemotePart{Name: "r0", Outputs: []planner.Output{
		{Name: "a", Mode: planner.OutDecrypt, Item: &det, Kind: value.Int},
		{Name: "r", Mode: planner.OutDecrypt, Item: &rnd, Kind: value.Int},
	}}
	rct, err := ks.EncryptValue(&rnd, value.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 10)
	for i := range rows {
		rows[i] = []value.Value{value.NewNull(), rct}
	}
	dec, err := (&Client{Keys: ks}).newDecoder(part)
	if err != nil {
		t.Fatal(err)
	}
	d := dec.clone()
	_, n, err := d.decode(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(rows)) {
		t.Errorf("%d decryptions, want one per RND cell (%d)", n, len(rows))
	}
	if m := d.cols[0].memo; m.misses != 0 || m.last[0].K != value.Null {
		t.Errorf("NULL cells reached the memo: %+v", m)
	}
	if m := d.cols[1].memo; !m.off || m.misses != 0 || len(m.ints) != 0 || len(m.bytes) != 0 {
		t.Errorf("RND column memoised: %+v", m)
	}
	if _, ok := d.cols[1].memo.get(rct); ok {
		t.Error("an RND column's memo answered")
	}
}

// TestMemoStopsInserting: at memoCap the map stops growing but still answers
// for what it holds; a column that repeats nothing in its first memoProbe
// distinct ciphertexts drops its memo and inserts nothing more.
func TestMemoStopsInserting(t *testing.T) {
	it := enc.ColumnItem("t", "a", enc.DET, value.Int)
	out := &planner.Output{Name: "a", Mode: planner.OutDecrypt, Item: &it, Kind: value.Int}

	// Ciphertext i decrypts to -i. -1 goes in first and hits once, so the
	// column is not hit-less; the map then fills with -1, 0 … memoCap-2.
	m := newMemo(out)
	for i := -1; i < memoCap+100; i++ {
		m.put(value.NewInt(int64(i)), value.NewInt(int64(-i)))
		if i == -1 {
			if _, ok := m.get(value.NewInt(-1)); !ok {
				t.Fatal("the latest miss must hit")
			}
		}
	}
	if len(m.ints) != memoCap {
		t.Fatalf("map holds %d entries, cap is %d", len(m.ints), memoCap)
	}
	for _, i := range []int64{-1, 0, memoCap - 2, memoCap + 99} { // held, and the latest miss
		if pv, ok := m.get(value.NewInt(i)); !ok || pv.I != -i {
			t.Errorf("ciphertext %d: got %v %v, want %d", i, pv, ok, -i)
		}
	}
	if _, ok := m.get(value.NewInt(memoCap + 50)); ok {
		t.Error("a ciphertext past the cap was inserted")
	}

	b := newMemo(out)
	for i := 0; i <= memoProbe; i++ {
		b.put(value.NewBytes([]byte{byte(i), byte(i >> 8)}), value.NewInt(int64(i)))
	}
	if !b.off || len(b.bytes) != 0 {
		t.Fatalf("a hit-less column kept its memo: off=%v, %d entries", b.off, len(b.bytes))
	}
	b.put(value.NewBytes([]byte{1, 0}), value.NewInt(1))
	if _, ok := b.get(value.NewBytes([]byte{1, 0})); ok {
		t.Error("a dropped memo answered")
	}
}

// TestOneRowDecodeAllocs: a one-row decode allocates its arena and row slice
// and nothing else — its memo puts nothing in a map.
func TestOneRowDecodeAllocs(t *testing.T) {
	ks, err := enc.NewKeyStore([]byte("k"), 256)
	if err != nil {
		t.Fatal(err)
	}
	part, cts := detColumn(t, ks, 1)
	dec, err := (&Client{Keys: ks}).newDecoder(part)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 50
	clones := make([]*decoder, runs+1) // AllocsPerRun warms up with one extra run
	for i := range clones {
		clones[i] = dec.clone()
	}
	row := [][]value.Value{{cts[0]}}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		clones[next].decode(row, 1) //nolint:errcheck
		next++
	})
	if allocs > 2 {
		t.Errorf("one-row decode: %.1f allocs, want 2 (arena and rows)", allocs)
	}
	if m := &clones[0].cols[0].memo; len(m.ints) != 0 {
		t.Error("a one-row decode put its ciphertext in a memo map")
	}
}

// TestDirectResult is the identity predicate: a local query that re-selects
// r0's outputs in order — bare, r0-qualified or self-aliased — is the decoded
// rows; anything else runs on the engine.
func TestDirectResult(t *testing.T) {
	for _, tc := range []struct {
		local string // "" = no local query
		want  bool
	}{
		{"", true},
		{"SELECT a, b FROM r0", true},
		{"SELECT r0.a, r0.b FROM r0", true},
		{"SELECT a AS a, r0.b AS b FROM r0", true},
		{"SELECT a AS x, b FROM r0", false},
		{"SELECT b, a FROM r0", false},
		{"SELECT a FROM r0", false},
		{"SELECT a, b, a FROM r0", false},
		{"SELECT a + 1, b FROM r0", false},
		{"SELECT DISTINCT a, b FROM r0", false},
		{"SELECT a, b FROM r0 LIMIT 3", false},
		{"SELECT a, b FROM r0 WHERE a > 1", false},
		{"SELECT a, b FROM r0 ORDER BY a", false},
		{"SELECT a, b FROM r0 GROUP BY a, b", false},
		{"SELECT * FROM r0", false},
		{"SELECT a, b FROM r0, r1", false},
		{"SELECT a, b FROM r1", false},
		{"SELECT r0.a, b FROM r0 x", false},
	} {
		plan := &planner.Plan{Remote: &planner.RemotePart{Name: "r0", Outputs: []planner.Output{{Name: "a"}, {Name: "b"}}}}
		if tc.local != "" {
			plan.Local = sqlparser.MustParse(tc.local)
		}
		if got := directResult(plan); got != tc.want {
			t.Errorf("%q: directResult = %v, want %v", tc.local, got, tc.want)
		}
	}
	if directResult(&planner.Plan{Local: sqlparser.MustParse("SELECT a FROM r0")}) {
		t.Error("a plan without a remote part is not direct")
	}
}

// TestDirectResultMatchesEngine: every direct plan of the warm shapes and the
// integration fixture's single-table queries returns the columns and rows
// its local query returns when the engine runs it.
func TestDirectResultMatchesEngine(t *testing.T) {
	direct := 0
	warm, orders := warmFixture(t), newFixture(t)
	for _, tc := range []struct {
		f      *fixture
		sql    string
		params map[string]value.Value
	}{
		{warm, warmShapes[0].sql, warmShapes[0].params(3)},
		{warm, warmShapes[1].sql, warmShapes[1].params(3)},
		{warm, warmShapes[2].sql, warmShapes[2].params(3)},
		{orders, `SELECT o_id, o_cust FROM orders WHERE o_total > 50`, nil},
		{orders, `SELECT o_cust, o_total FROM orders o WHERE o.o_date < date '1996-06-01'`, nil},
	} {
		q, _, err := tc.f.client.Ctx.Prepare(sqlparser.MustParse(tc.sql), tc.params)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := tc.f.client.Ctx.ClientPlan(q, tc.f.client.Greedy)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		cp, err := tc.f.client.compile(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !cp.direct {
			continue
		}
		direct++
		got, err := tc.f.client.run(cp, &Result{}, execCtx{})
		if err != nil {
			t.Fatal(err)
		}
		cp.direct = false
		want, err := tc.f.client.run(cp, &Result{}, execCtx{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s: direct %v %v, engine %v %v", tc.sql, got.Cols, got.Rows, want.Cols, want.Rows)
		}
	}
	if direct < len(warmShapes) {
		t.Errorf("%d direct plans, want at least the %d warm shapes", direct, len(warmShapes))
	}
}

// TestTemplateReuseConcurrent: 8 goroutines execute one cached template —
// each warm shape, one wide enough to decode with peers, and a key-filtered
// one — at once. Every execution sends the RemoteSQL and parameters the cold
// fill sent and returns its rows, columns, plan text and decrypt count; the
// template's queries are left as they were. Run under -race, a decoder, memo
// or query shared between executions shows, and a pooled clone that kept
// memo entries decrypts less.
func TestTemplateReuseConcurrent(t *testing.T) {
	type tc struct {
		f      *fixture
		sql    string
		params map[string]value.Value
	}
	wf, kf := warmFixture(t), newKeyFilterFixture(t)
	var cases []tc
	for _, s := range warmShapes {
		cases = append(cases, tc{wf, s.sql, s.params(5)})
	}
	cases = append(cases, tc{wf, wideShape.sql, wideShape.params}, tc{kf, fmt.Sprintf(kfQ17, 300), nil})
	for _, c := range cases {
		fill, warm := &kfExec{srv: c.f.client.Srv}, &kfExec{srv: c.f.client.Srv}
		c.f.client.SetExecutor(fill)
		cold, err := c.f.client.Query(c.sql, c.params)
		if err != nil {
			t.Fatal(err)
		}
		if cold.PlanCacheHit {
			t.Fatalf("%s: the fill reported a hit", c.sql)
		}
		c.f.client.SetExecutor(warm)
		sqlBefore := make(map[*planner.RemotePart]string)
		for _, part := range cold.Plan.AllParts() {
			sqlBefore[part] = part.Query.SQL()
		}
		const goroutines, reps = 8, 4
		results := make([]*Result, goroutines*reps)
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < reps && errs[g] == nil; r++ {
					results[g*reps+r], errs[g] = c.f.client.Query(c.sql, c.params)
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, res := range results {
			if !res.PlanCacheHit || res.Plan != cold.Plan || res.PlanText != cold.PlanText || res.Decrypts != cold.Decrypts ||
				!reflect.DeepEqual(res.Cols, cold.Cols) || !reflect.DeepEqual(res.Rows, cold.Rows) {
				t.Fatalf("%s: a warm execution differs from the fill (%d decrypts, the fill %d):\n%v %v\nvs\n%v %v",
					c.sql, res.Decrypts, cold.Decrypts, res.Cols, res.Rows, cold.Cols, cold.Rows)
			}
		}
		want := map[string]int{}
		for _, call := range fill.sqls {
			want[call] += goroutines * reps
		}
		got := map[string]int{}
		for _, call := range warm.sqls {
			got[call]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: warm executions sent\n%v\nwant the fill's calls, %d times each:\n%v", c.sql, got, goroutines*reps, fill.sqls)
		}
		for part, sql := range sqlBefore {
			if part.Query.SQL() != sql {
				t.Errorf("template RemoteSQL changed: %s\nwas %s", part.Query.SQL(), sql)
			}
		}
		c.f.client.SetExecutor(c.f.client.Srv)
	}
	part, cts := detColumn(t, wf.client.Keys, 2)
	dec, err := wf.client.newDecoder(part)
	if err != nil {
		t.Fatal(err)
	}
	d := dec.clone()
	if _, _, err := d.decode([][]value.Value{{cts[0]}, {cts[1]}, {cts[0]}}, 1); err != nil {
		t.Fatal(err)
	}
	if d.clone().cols[0].memo.ints != nil || d.cols[0].memo.ints == nil {
		t.Error("a clone shares its parent's memo")
	}
}

// Warm allocation pins: the allocations of one warm execution of each warm
// shape on warmFixture's client (rebind, index probe, decode, the result). A
// per-execution decoder clone or memo map, RemoteSQL clone, plan render,
// literal hoist or local engine run coming back raises them.
const (
	warmPointAllocs = 32
	warmRangeAllocs = 159
	warmSum1Allocs  = 89
)

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// warmAllocs is the average allocation count of a warm execution of
// warmShapes[i], its parameters fixed. Under -race it skips: sync.Pool then
// drops a random quarter of what it is given, so a count would measure the
// detector, not the decode path.
func warmAllocs(t *testing.T, i int) float64 {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	f := warmFixture(t)
	stmt, err := f.client.Prepare(warmShapes[i].sql)
	if err != nil {
		t.Fatal(err)
	}
	params := warmShapes[i].params(1)
	if _, err := stmt.Execute(params); err != nil { // fills the plan cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := stmt.Execute(params); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm %s execution: %.1f allocs", warmShapes[i].name, allocs)
	return allocs
}

// TestWarmPointAllocs is BenchmarkWarmStmt/point's allocs/op as a test.
func TestWarmPointAllocs(t *testing.T) {
	if allocs := warmAllocs(t, 0); allocs > warmPointAllocs {
		t.Errorf("warm point execution: %.1f allocs, pinned at %d", allocs, warmPointAllocs)
	}
}

// TestWarmRangeAllocs is BenchmarkWarmStmt/range's allocs/op as a test: its
// ~100 distinct e_id ciphertexts fill a memo map, which must be the pooled
// clone's.
func TestWarmRangeAllocs(t *testing.T) {
	if allocs := warmAllocs(t, 1); allocs > warmRangeAllocs {
		t.Errorf("warm range execution: %.1f allocs, pinned at %d", allocs, warmRangeAllocs)
	}
}

// TestWarmSum1Allocs is BenchmarkWarmStmt/sum1's allocs/op as a test: its
// GROUP_CONCAT blob folds frame by frame.
func TestWarmSum1Allocs(t *testing.T) {
	if allocs := warmAllocs(t, 2); allocs > warmSum1Allocs {
		t.Errorf("warm sum1 execution: %.1f allocs, pinned at %d", allocs, warmSum1Allocs)
	}
}

// BenchmarkWarmStmt measures one warm prepared execution of each hotpath
// shape on warmFixture's in-process client: the client's whole per-execution
// cost plus the server's index probe.
func BenchmarkWarmStmt(b *testing.B) {
	f := warmFixture(b)
	for _, s := range warmShapes {
		b.Run(s.name, func(b *testing.B) {
			stmt, err := f.client.Prepare(s.sql)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := stmt.Execute(s.params(0)); err != nil {
				b.Fatal(err)
			}
			params := make([]map[string]value.Value, 64)
			for i := range params {
				params[i] = s.params(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stmt.Execute(params[i%len(params)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
