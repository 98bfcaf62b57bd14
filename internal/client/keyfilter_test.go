package client

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/enc"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Key filter tests. The fixture has NULL and duplicate join keys: cust(c_id,
// c_name), ord(o_id, o_cust, o_total) with two orders of no customer, and
// line(l_ord, l_qty, l_price) with lines of no order and several lines per
// order. Every query runs on the plaintext engine and through the client,
// in process and over NewRemote's framed hand-off, and must agree.

func keyFilterCatalog(t testing.TB) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	mk := func(name string, cols []storage.Column, rows [][]value.Value) {
		tbl, err := cat.Create(storage.Schema{Name: name, Cols: cols})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			tbl.MustInsert(r)
		}
	}
	i, s, null := value.NewInt, value.NewStr, value.NewNull()
	col := func(n string, ty storage.ColType) storage.Column { return storage.Column{Name: n, Type: ty} }
	var custs, ords, lines [][]value.Value
	for c := int64(1); c <= 6; c++ {
		custs = append(custs, []value.Value{i(c), s(fmt.Sprintf("cust-%d", c))})
	}
	for o := int64(1); o <= 12; o++ {
		cust := i(o%6 + 1)
		if o%5 == 0 {
			cust = null
		}
		ords = append(ords, []value.Value{i(o), cust, i(o * 37 % 500)})
	}
	for l := int64(0); l < 40; l++ {
		ord := i(l%14 + 1) // orders 13 and 14 do not exist
		if l%9 == 4 {
			ord = null
		}
		lines = append(lines, []value.Value{ord, i(l%7 + 1), i(l * 13 % 50)})
	}
	mk("cust", []storage.Column{col("c_id", storage.TInt), col("c_name", storage.TStr)}, custs)
	mk("ord", []storage.Column{col("o_id", storage.TInt), col("o_cust", storage.TInt), col("o_total", storage.TInt)}, ords)
	mk("line", []storage.Column{col("l_ord", storage.TInt), col("l_qty", storage.TInt), col("l_price", storage.TInt)}, lines)
	return cat
}

func newKeyFilterFixture(t testing.TB) *fixture {
	t.Helper()
	cat := keyFilterCatalog(t)
	d := &enc.Design{}
	for _, c := range [][3]string{
		{"cust", "c_id", "custkey"}, {"cust", "c_name", ""},
		{"ord", "o_id", "ordkey"}, {"ord", "o_cust", "custkey"}, {"ord", "o_total", ""},
		{"line", "l_ord", "ordkey"}, {"line", "l_qty", ""}, {"line", "l_price", ""},
	} {
		kind := value.Int
		if c[1] == "c_name" {
			kind = value.Str
		}
		it := enc.ColumnItem(c[0], c[1], enc.DET, kind)
		it.JoinGroup = c[2]
		d.Add(it)
	}
	d.Add(enc.ColumnItem("ord", "o_total", enc.OPE, value.Int))
	d.Add(enc.ColumnItem("line", "l_qty", enc.OPE, value.Int))
	ks, err := enc.NewKeyStore([]byte("key-filter-master-key"), 256)
	if err != nil {
		t.Fatal(err)
	}
	db, err := enc.EncryptDatabase(cat, d, ks)
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Default()
	ctx := planner.NewContext(cat, d, ks, planner.DefaultCostModel(cfg))
	for k, g := range map[string]string{"cust.c_id": "custkey", "ord.o_cust": "custkey", "ord.o_id": "ordkey", "line.l_ord": "ordkey"} {
		ctx.JoinGroups[k] = g
	}
	return &fixture{cat: cat, client: New(ks, server.New(db, cfg), ctx, cfg), plain: engine.New(cat)}
}

// Query shapes. The IN-subqueries' and EXISTS' filters (l_qty * 2 > l_price)
// have no encryption, so each subquery is fetched and evaluated on the client
// — the residual shapes key filters read.
const (
	// Q18: the main join restricted by an aggregated IN-subquery's keys.
	kfQ18 = `SELECT c_name, o_id, SUM(l_qty) AS q FROM cust, ord, line
		WHERE c_id = o_cust AND o_id = l_ord AND o_id IN (
			SELECT l_ord FROM line GROUP BY l_ord HAVING SUM(l_qty * l_price) > %d)
		GROUP BY c_name, o_id ORDER BY o_id`
	// Q17: a correlated scalar subquery's fetch restricted by the outer keys.
	kfQ17 = `SELECT SUM(l_price) FROM line, ord WHERE o_id = l_ord AND o_total > %v
		AND l_qty * 3 < (SELECT SUM(l2.l_qty) FROM line l2 WHERE l2.l_ord = o_id)`
	// An IN-subquery whose keys hold NULLs and duplicates: the fetch of the
	// lines with l_qty > 5 names 4 of the 12 orders.
	kfIn = `SELECT o_id, o_total FROM ord WHERE o_id IN (
		SELECT l_ord FROM line WHERE l_qty > 5 AND l_qty * 2 > l_price) ORDER BY o_id`
	// A correlated NOT EXISTS: the fetch it reads is filtered.
	kfNotExists = `SELECT o_id FROM ord WHERE o_total < 400 AND NOT EXISTS (
		SELECT 1 FROM line WHERE l_ord = o_id AND l_qty * 2 > l_price) ORDER BY o_id`
)

// kfExec forwards to a server and logs each RemoteSQL it receives, followed
// by its parameter bindings in name order.
type kfExec struct {
	srv *server.Server

	mu   sync.Mutex
	sqls []string
}

func (e *kfExec) log(q *ast.Query, params map[string]value.Value) {
	bound := make([]string, 0, len(params))
	for name, v := range params {
		bound = append(bound, name+"="+v.String())
	}
	sort.Strings(bound)
	e.mu.Lock()
	e.sqls = append(e.sqls, q.SQL()+" "+strings.Join(bound, ","))
	e.mu.Unlock()
}

func (e *kfExec) Execute(q *ast.Query, params map[string]value.Value) (*server.Response, error) {
	e.log(q, params)
	return e.srv.Execute(q, params)
}

func (e *kfExec) ExecuteStream(q *ast.Query, params map[string]value.Value, w io.Writer) (*server.StreamStats, error) {
	e.log(q, params)
	return e.srv.ExecuteStream(q, params, w)
}

// filtered counts the logged RemoteSQL carrying a key list.
func (e *kfExec) filtered() int {
	n := 0
	for _, s := range e.sqls {
		if strings.Contains(s, ":kf0") {
			n++
		}
	}
	return n
}

// hasFilter reports whether the plan attaches any key filter.
func hasFilter(p *planner.Plan) bool {
	for _, part := range p.AllParts() {
		if part.KeyFilter != nil {
			return true
		}
	}
	return false
}

func TestKeyFilterShapesAttachAndAgree(t *testing.T) {
	f := newKeyFilterFixture(t)
	for _, tc := range []struct {
		sql  string
		line string // the key-filter line Describe must show
	}{
		{fmt.Sprintf(kfQ18, 500), "key filter ord__o_id IN r"},
		{fmt.Sprintf(kfQ17, 300), "key filter l2__l_ord IN r0.ord__o_id"},
		{kfIn, "key filter ord__o_id IN r1.line__l_ord"},
		{kfNotExists, "key filter line__l_ord IN r0.ord__o_id"},
	} {
		exec := &kfExec{srv: f.client.Srv}
		f.client.SetExecutor(exec)
		res := f.checkQuery(t, tc.sql, nil)
		if d := res.Plan.Describe(); !strings.Contains(d, tc.line) {
			t.Errorf("plan lacks %q:\n%s", tc.line, d)
		}
		if exec.filtered() != 1 || res.KeyBytes <= 0 {
			t.Errorf("%d filtered RemoteSQL, KeyBytes %d; want 1 and > 0:\n%s", exec.filtered(), res.KeyBytes, tc.sql)
		}
	}
}

// TestKeyFilterNullAndDuplicateKeys: the IN-subquery's source column holds
// NULLs and repeats; the list carries each distinct non-NULL key of it once.
func TestKeyFilterNullAndDuplicateKeys(t *testing.T) {
	f := newKeyFilterFixture(t)
	res := f.checkQuery(t, kfIn, nil)
	want := f.plainRows(t, `SELECT DISTINCT l_ord FROM line WHERE l_qty > 5 AND l_ord IS NOT NULL`)
	var nulls int
	for _, r := range f.plainRows(t, `SELECT l_ord FROM line WHERE l_qty > 5`) {
		if r[0].IsNull() {
			nulls++
		}
	}
	if nulls == 0 || len(want) < 2 {
		t.Fatalf("fixture: %d NULL keys, %d distinct keys", nulls, len(want))
	}
	if res.KeyBytes != int64(8*len(want)) {
		t.Errorf("KeyBytes = %d, want %d (8 B for each of %d distinct non-NULL keys)", res.KeyBytes, 8*len(want), len(want))
	}
}

func (f *fixture) plainRows(t *testing.T, sql string) [][]value.Value {
	t.Helper()
	res, err := f.plain.Execute(sqlparser.MustParse(sql), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// TestKeyFilterEmptySourceSkipsPart: with no keys no row of the part can
// reach the residual, so the part is never sent — a Q18 shape returns no
// rows and a Q17 shape NULL.
func TestKeyFilterEmptySourceSkipsPart(t *testing.T) {
	f := newKeyFilterFixture(t)
	for _, tc := range []struct {
		sql   string
		sends int
	}{
		{fmt.Sprintf(kfQ18, 1_000_000), 1}, // the subquery's part only
		{fmt.Sprintf(kfQ17, 1_000_000), 1}, // the outer part only
	} {
		exec := &kfExec{srv: f.client.Srv}
		f.client.SetExecutor(exec)
		res := f.checkQuery(t, tc.sql, nil)
		if !hasFilter(res.Plan) || len(exec.sqls) != tc.sends || res.KeyBytes != 0 {
			t.Errorf("sent %d RemoteSQL (want %d), KeyBytes %d, filtered plan %v:\n%s",
				len(exec.sqls), tc.sends, res.KeyBytes, hasFilter(res.Plan), res.Plan.Describe())
		}
	}
	if res := f.checkQuery(t, fmt.Sprintf(kfQ17, 1_000_000), nil); len(res.Rows) != 1 || !res.Rows[0][0].IsNull() {
		t.Errorf("Q17 shape over no keys: %v, want one NULL", res.Rows)
	}
	if res := f.checkQuery(t, fmt.Sprintf(kfQ18, 1_000_000), nil); len(res.Rows) != 0 {
		t.Errorf("Q18 shape over no keys: %d rows", len(res.Rows))
	}
}

// TestKeyFilterOffOverBudget: a key list costing at least the result bytes
// it is estimated to save is not sent; the part runs unfiltered. Without the
// l_qty > 5 fetch filter the IN-subquery's keys name every order, so they
// save nothing; with it, a part whose estimate is shrunk below the keys'
// bytes keeps its filter off.
func TestKeyFilterOffOverBudget(t *testing.T) {
	f := newKeyFilterFixture(t)
	all := `SELECT o_id, o_total FROM ord WHERE o_id IN (SELECT l_ord FROM line WHERE l_qty * 2 > l_price) ORDER BY o_id`
	exec := &kfExec{srv: f.client.Srv}
	f.client.SetExecutor(exec)
	if res := f.checkQuery(t, all, nil); !hasFilter(res.Plan) || exec.filtered() != 0 || res.KeyBytes != 0 {
		t.Errorf("every key: filtered plan %v, %d filtered RemoteSQL, KeyBytes %d; want the filter off",
			hasFilter(res.Plan), exec.filtered(), res.KeyBytes)
	}

	q := sqlparser.MustParse(kfIn)
	prepared, _, err := f.client.Ctx.Prepare(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := f.client.makePlan(prepared)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFilter(plan) {
		t.Fatalf("no key filter:\n%s", plan.Describe())
	}
	for _, part := range plan.AllParts() {
		if part.KeyFilter != nil {
			part.EstBytes = 8
		}
	}
	exec = &kfExec{srv: f.client.Srv}
	f.client.SetExecutor(exec)
	res, err := f.client.runPlanned(plan, &Result{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := f.plain.Execute(q, nil)
	if g, w := canonicalRows(res.Rows, true), canonicalRows(want.Rows, true); strings.Join(g, ";") != strings.Join(w, ";") {
		t.Errorf("rows %v, want %v", g, w)
	}
	if exec.filtered() != 0 || res.KeyBytes != 0 {
		t.Errorf("%d filtered RemoteSQL, KeyBytes %d; want the filter off", exec.filtered(), res.KeyBytes)
	}
}

// TestKeyFilterNeverOnAntiJoins: a NOT IN, a negated IN and an IN under OR
// keep rows the key set does not name, so none is filtered — and NOT IN
// against the NULL-holding key set returns no rows.
func TestKeyFilterNeverOnAntiJoins(t *testing.T) {
	f := newKeyFilterFixture(t)
	sub := `(SELECT l_ord FROM line WHERE l_qty * 2 > l_price)`
	for _, sql := range []string{
		`SELECT o_id FROM ord WHERE o_total > 50 AND o_id NOT IN ` + sub,
		`SELECT o_id FROM ord WHERE o_total > 50 AND NOT (o_id IN ` + sub + `)`,
		`SELECT o_id FROM ord WHERE o_total > 50 AND (o_id IN ` + sub + ` OR o_total > 400) ORDER BY o_id`,
	} {
		res := f.checkQuery(t, sql, nil)
		if hasFilter(res.Plan) {
			t.Errorf("filtered:\n%s", res.Plan.Describe())
		}
		if strings.Contains(sql, "NOT") && len(res.Rows) != 0 {
			t.Errorf("%d rows, want none (the key set holds a NULL): %s", len(res.Rows), sql)
		}
	}
}

// TestKeyFilterHandoffsAgree: both hand-offs send the same keys and decrypt
// the same rows.
func TestKeyFilterHandoffsAgree(t *testing.T) {
	in := newKeyFilterFixture(t)
	remote := in.remote(nil)
	for _, sql := range []string{fmt.Sprintf(kfQ18, 500), fmt.Sprintf(kfQ17, 300), kfIn, kfNotExists} {
		a := in.checkQuery(t, sql, nil)
		b := remote.checkQuery(t, sql, nil)
		if a.KeyBytes != b.KeyBytes || a.KeyBytes == 0 {
			t.Errorf("KeyBytes in process %d, remote %d: %s", a.KeyBytes, b.KeyBytes, sql)
		}
		if g, w := canonicalRows(b.Rows, true), canonicalRows(a.Rows, true); strings.Join(g, ";") != strings.Join(w, ";") {
			t.Errorf("remote rows %v, in-process %v", g, w)
		}
	}
}

// TestKeyFilterTemplateTwoKeySets: one cached template runs with two key
// sets; the template's RemoteSQL stays key-free.
func TestKeyFilterTemplateTwoKeySets(t *testing.T) {
	f := newKeyFilterFixture(t)
	var sizes []int64
	for i, lo := range []int64{300, 100} {
		res := f.checkQuery(t, fmt.Sprintf(kfQ17, ":lo"), map[string]value.Value{"lo": value.NewInt(lo)})
		if res.PlanCacheHit != (i > 0) {
			t.Errorf("lo=%d: PlanCacheHit = %v", lo, res.PlanCacheHit)
		}
		for _, part := range res.Plan.AllParts() {
			if strings.Contains(part.Query.SQL(), "kf") {
				t.Errorf("cached RemoteSQL carries keys: %s", part.Query.SQL())
			}
		}
		sizes = append(sizes, res.KeyBytes)
	}
	if sizes[0] == 0 || sizes[0] >= sizes[1] {
		t.Errorf("KeyBytes %v: want a larger key set for the lower bound", sizes)
	}
}
