package client

import (
	"fmt"
	"sort"
	"strings"
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

// The integration fixture: a two-table plaintext database, a physical
// design exercising every scheme, and a client/server pair. Every test
// executes a query both on the plaintext engine and through the encrypted
// split-execution path and requires identical results.

func plainCatalog(t testing.TB) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	orders, err := cat.Create(storage.Schema{
		Name: "orders",
		Cols: []storage.Column{
			{Name: "o_id", Type: storage.TInt},
			{Name: "o_cust", Type: storage.TStr},
			{Name: "o_total", Type: storage.TInt},
			{Name: "o_date", Type: storage.TDate},
		},
		Key: []string{"o_id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	day := value.MustParseDate
	type orow struct {
		id    int64
		cust  string
		total int64
		date  string
	}
	orows := []orow{
		{1, "alice", 100, "1995-01-15"},
		{2, "bob", 250, "1995-06-01"},
		{3, "alice", 40, "1996-02-20"},
		{4, "carol", 900, "1996-07-04"},
		{5, "bob", 10, "1997-03-30"},
		{6, "dave", 310, "1995-11-11"},
		{7, "erin", 77, "1996-01-02"},
		{8, "alice", 450, "1997-08-19"},
	}
	for _, r := range orows {
		orders.MustInsert([]value.Value{
			value.NewInt(r.id), value.NewStr(r.cust), value.NewInt(r.total), value.NewDate(day(r.date)),
		})
	}
	items, err := cat.Create(storage.Schema{
		Name: "items",
		Cols: []storage.Column{
			{Name: "i_order", Type: storage.TInt},
			{Name: "i_qty", Type: storage.TInt},
			{Name: "i_price", Type: storage.TInt},
			{Name: "i_tag", Type: storage.TStr},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	type irow struct {
		order, qty, price int64
		tag               string
	}
	irows := []irow{
		{1, 2, 30, "red widget"},
		{1, 1, 40, "green gadget"},
		{2, 5, 50, "red gadget"},
		{3, 1, 40, "blue widget"},
		{4, 10, 90, "green widget"},
		{4, 3, 10, "red trinket"},
		{5, 1, 10, "blue trinket"},
		{6, 7, 44, "green trinket"},
		{7, 2, 33, "blue gadget"},
		{8, 4, 112, "red widget"},
		{8, 1, 9, "green widget"},
	}
	for _, r := range irows {
		items.MustInsert([]value.Value{
			value.NewInt(r.order), value.NewInt(r.qty), value.NewInt(r.price), value.NewStr(r.tag),
		})
	}
	return cat
}

// fixtureDesign builds a rich design: baseline DET everywhere (shared join
// key for o_id/i_order), OPE on numerics and dates, HOM on o_total and the
// precomputed i_price*i_qty, SEARCH on tags, and a DET precomputation of
// extract_year(o_date).
func fixtureDesign(t testing.TB) *enc.Design {
	t.Helper()
	d := &enc.Design{GroupedAddition: true, MultiRowPacking: true}
	addDet := func(table, col string, kind value.Kind, group string) {
		it := enc.ColumnItem(table, col, enc.DET, kind)
		it.JoinGroup = group
		d.Add(it)
	}
	addDet("orders", "o_id", value.Int, "orderkey")
	addDet("orders", "o_cust", value.Str, "")
	addDet("orders", "o_total", value.Int, "")
	addDet("orders", "o_date", value.Date, "")
	addDet("items", "i_order", value.Int, "orderkey")
	addDet("items", "i_qty", value.Int, "")
	addDet("items", "i_price", value.Int, "")
	addDet("items", "i_tag", value.Str, "")

	d.Add(enc.ColumnItem("orders", "o_total", enc.OPE, value.Int))
	d.Add(enc.ColumnItem("orders", "o_date", enc.OPE, value.Date))
	d.Add(enc.ColumnItem("items", "i_qty", enc.OPE, value.Int))
	d.Add(enc.ColumnItem("orders", "o_total", enc.HOM, value.Int))
	d.Add(enc.ColumnItem("items", "i_qty", enc.HOM, value.Int))
	d.Add(enc.ColumnItem("items", "i_tag", enc.SEARCH, value.Str))

	mustExpr := func(src string) ast.Expr {
		e, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	d.Add(enc.ExprItem("items", mustExpr("i_price * i_qty"), enc.HOM, value.Int))
	d.Add(enc.ExprItem("items", mustExpr("i_price * i_qty"), enc.DET, value.Int))
	d.Add(enc.ExprItem("orders", mustExpr("extract(year from o_date)"), enc.DET, value.Int))
	return d
}

type fixture struct {
	cat    *storage.Catalog
	client *Client
	plain  *engine.Engine
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	cat := plainCatalog(t)
	design := fixtureDesign(t)
	ks, err := enc.NewKeyStore([]byte("test-master-key"), 256)
	if err != nil {
		t.Fatal(err)
	}
	db, err := enc.EncryptDatabase(cat, design, ks)
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Default()
	srv := server.New(db, cfg)
	cost := planner.DefaultCostModel(cfg)
	ctx := planner.NewContext(cat, design, ks, cost)
	ctx.JoinGroups["orders.o_id"] = "orderkey"
	ctx.JoinGroups["items.i_order"] = "orderkey"
	return &fixture{
		cat:    cat,
		client: New(ks, srv, ctx, cfg),
		plain:  engine.New(cat),
	}
}

// canonicalRows renders rows order-insensitively unless ordered is true.
func canonicalRows(rows [][]value.Value, ordered bool) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			if v.K == value.Float {
				parts[j] = fmt.Sprintf("%.6f", v.F)
			} else {
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// checkQuery runs sql both ways and compares.
func (f *fixture) checkQuery(t *testing.T, sql string, params map[string]value.Value) *Result {
	t.Helper()
	q := sqlparser.MustParse(sql)
	want, err := f.plain.Execute(q, params)
	if err != nil {
		t.Fatalf("plaintext: %v", err)
	}
	got, err := f.client.Query(sql, params)
	if err != nil {
		t.Fatalf("encrypted: %v", err)
	}
	ordered := len(q.OrderBy) > 0
	w := canonicalRows(want.Rows, ordered)
	g := canonicalRows(got.Rows, ordered)
	if len(w) != len(g) {
		t.Fatalf("row count: got %d want %d\nplan:\n%s\ngot: %v\nwant: %v",
			len(g), len(w), got.Plan.Describe(), g, w)
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("row %d:\n got  %s\n want %s\nplan:\n%s", i, g[i], w[i], got.Plan.Describe())
		}
	}
	return got
}

func TestSimpleFetchWithOPEFilter(t *testing.T) {
	f := newFixture(t)
	res := f.checkQuery(t, `SELECT o_id, o_cust FROM orders WHERE o_total > 100`, nil)
	// The OPE filter must have been pushed: only matching rows transfer.
	if res.Plan.Remote == nil {
		t.Fatal("expected remote part")
	}
	if !strings.Contains(res.Plan.Remote.Query.SQL(), "o_total_ope") {
		t.Errorf("filter not pushed via OPE:\n%s", res.Plan.Describe())
	}
}

func TestDetEqualityFilter(t *testing.T) {
	f := newFixture(t)
	res := f.checkQuery(t, `SELECT o_id FROM orders WHERE o_cust = 'alice'`, nil)
	if !strings.Contains(res.Plan.Remote.Query.SQL(), "o_cust_det") {
		t.Errorf("equality not pushed via DET:\n%s", res.Plan.Describe())
	}
}

func TestServerGroupByWithHomSum(t *testing.T) {
	f := newFixture(t)
	// At fixture scale the cost model may legitimately prefer client-side
	// aggregation (the paper's Q18 effect), so force the greedy plan to
	// verify the server-grouped path end to end.
	q := sqlparser.MustParse(`SELECT o_cust, SUM(o_total) AS s FROM orders GROUP BY o_cust ORDER BY s DESC`)
	prepared, _, err := f.client.Ctx.Prepare(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := f.client.Ctx.Generate(prepared)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Remote.Query.SQL(), "GROUP BY") ||
		!strings.Contains(plan.Remote.Query.SQL(), "paillier_sum") {
		t.Fatalf("greedy plan should push GROUP BY with PAILLIER_SUM:\n%s", plan.Describe())
	}
	got, err := f.client.runPlanned(plan, &Result{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.plain.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := canonicalRows(want.Rows, true)
	g := canonicalRows(got.Rows, true)
	for i := range w {
		if i >= len(g) || w[i] != g[i] {
			t.Fatalf("row %d mismatch:\ngot  %v\nwant %v\nplan:\n%s", i, g, w, plan.Describe())
		}
	}
	// And the cost-chosen plan must agree too.
	f.checkQuery(t, `SELECT o_cust, SUM(o_total) AS s FROM orders GROUP BY o_cust ORDER BY s DESC`, nil)
}

func TestJoinGroupByAggregate(t *testing.T) {
	f := newFixture(t)
	f.checkQuery(t, `SELECT o_cust, SUM(i_price * i_qty) AS v
		FROM orders, items WHERE o_id = i_order GROUP BY o_cust ORDER BY v DESC`, nil)
}

func TestSearchLike(t *testing.T) {
	f := newFixture(t)
	res := f.checkQuery(t, `SELECT i_order FROM items WHERE i_tag LIKE '%widget%'`, nil)
	if !strings.Contains(res.Plan.Remote.Query.SQL(), "search_match") {
		t.Errorf("LIKE not pushed via SEARCH:\n%s", res.Plan.Describe())
	}
}

func TestExtractYearPrecomputedGroupBy(t *testing.T) {
	f := newFixture(t)
	f.checkQuery(t, `SELECT extract(year from o_date) AS y, COUNT(*) FROM orders
		GROUP BY extract(year from o_date) ORDER BY y`, nil)
}

func TestCaseConditionalSum(t *testing.T) {
	f := newFixture(t)
	f.checkQuery(t, `SELECT SUM(CASE WHEN o_cust = 'alice' THEN o_total ELSE 0 END), SUM(o_total) FROM orders`, nil)
}

func TestHavingWithPrefilterShape(t *testing.T) {
	f := newFixture(t)
	f.checkQuery(t, `SELECT o_cust, SUM(o_total) AS s FROM orders GROUP BY o_cust HAVING SUM(o_total) > 300 ORDER BY s`, nil)
}

func TestScalarSubqueryMultiRound(t *testing.T) {
	f := newFixture(t)
	f.checkQuery(t, `SELECT o_id FROM orders WHERE o_total > (SELECT SUM(o_total) / 10 FROM orders)`, nil)
}

func TestCorrelatedExistsPushed(t *testing.T) {
	f := newFixture(t)
	res := f.checkQuery(t, `SELECT o_id FROM orders WHERE EXISTS (
		SELECT 1 FROM items WHERE i_order = o_id AND i_qty > 4) ORDER BY o_id`, nil)
	if !strings.Contains(res.Plan.Remote.Query.SQL(), "EXISTS") {
		t.Errorf("EXISTS not pushed:\n%s", res.Plan.Describe())
	}
}

func TestNotExistsLocalResidual(t *testing.T) {
	f := newFixture(t)
	// i_price <> 40 has no DET bool precomputation; the <> against a
	// constant uses DET though, so this can push. Use a predicate that
	// cannot push: arithmetic comparison between two columns.
	f.checkQuery(t, `SELECT o_id FROM orders WHERE NOT EXISTS (
		SELECT 1 FROM items WHERE i_order = o_id AND i_price * i_qty > o_total) ORDER BY o_id`, nil)
}

func TestLocalGroupingWithoutPrecomputation(t *testing.T) {
	f := newFixture(t)
	// SUM(i_price + i_qty) has no HOM/DET precomputation: grouping must
	// fall back to the client.
	f.checkQuery(t, `SELECT i_order, SUM(i_price + i_qty) FROM items GROUP BY i_order`, nil)
}

func TestMinMaxViaOPE(t *testing.T) {
	f := newFixture(t)
	f.checkQuery(t, `SELECT o_cust, MIN(o_total), MAX(o_total) FROM orders GROUP BY o_cust`, nil)
}

func TestCountDistinct(t *testing.T) {
	f := newFixture(t)
	f.checkQuery(t, `SELECT COUNT(DISTINCT o_cust) FROM orders`, nil)
}

func TestParamsThroughClient(t *testing.T) {
	f := newFixture(t)
	f.checkQuery(t, `SELECT o_id FROM orders WHERE o_cust = :1`,
		map[string]value.Value{"1": value.NewStr("bob")})
}

func TestInListPushed(t *testing.T) {
	f := newFixture(t)
	f.checkQuery(t, `SELECT o_id FROM orders WHERE o_cust IN ('alice', 'carol') ORDER BY o_id`, nil)
}

func TestBetweenDatesPushed(t *testing.T) {
	f := newFixture(t)
	res := f.checkQuery(t, `SELECT o_id FROM orders WHERE o_date BETWEEN date '1995-01-01' AND date '1995-12-31'`, nil)
	if !strings.Contains(res.Plan.Remote.Query.SQL(), "o_date_ope") {
		t.Errorf("date range not pushed via OPE:\n%s", res.Plan.Describe())
	}
}

func TestDateIntervalFolding(t *testing.T) {
	f := newFixture(t)
	f.checkQuery(t, `SELECT o_id FROM orders WHERE o_date >= date '1995-01-01'
		AND o_date < date '1995-01-01' + interval '1' year`, nil)
}

func TestAvgLowering(t *testing.T) {
	f := newFixture(t)
	f.checkQuery(t, `SELECT o_cust, AVG(o_total) FROM orders GROUP BY o_cust`, nil)
}

func TestOrderByLimit(t *testing.T) {
	f := newFixture(t)
	f.checkQuery(t, `SELECT o_id, o_total FROM orders ORDER BY o_total DESC LIMIT 3`, nil)
}

func TestDerivedTableSubplan(t *testing.T) {
	f := newFixture(t)
	f.checkQuery(t, `SELECT t.c, t.s FROM (SELECT o_cust AS c, SUM(o_total) AS s
		FROM orders GROUP BY o_cust) t WHERE t.s > 200 ORDER BY t.s DESC`, nil)
}

func TestInSubqueryAggregatedLocal(t *testing.T) {
	f := newFixture(t)
	// Q18 shape: IN over an aggregated subquery with HAVING.
	f.checkQuery(t, `SELECT o_id, o_total FROM orders WHERE o_id IN (
		SELECT i_order FROM items GROUP BY i_order HAVING SUM(i_qty) > 4) ORDER BY o_id`, nil)
}

func TestTimingsPopulated(t *testing.T) {
	f := newFixture(t)
	res := f.checkQuery(t, `SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust`, nil)
	if res.ServerTime <= 0 || res.TransferTime <= 0 {
		t.Errorf("timings: server=%v transfer=%v", res.ServerTime, res.TransferTime)
	}
	if res.WireBytes <= 0 {
		t.Error("wire bytes should be positive")
	}
}

func TestLocalSubqueryShipsTablesSeparately(t *testing.T) {
	f := newFixture(t)
	// i_price * i_qty > o2.o_total joins the subquery's two tables and
	// cannot run on the server, so each table ships on its own and the
	// pushable join i_order = o2.o_id runs locally too: its columns must
	// be fetched even though no other clause reads them.
	res := f.checkQuery(t, `SELECT o_id FROM orders o WHERE EXISTS (
		SELECT 1 FROM orders o2, items WHERE i_order = o2.o_id
		AND i_price * i_qty > o2.o_total AND o2.o_cust = o.o_cust) ORDER BY o_id`, nil)
	if !strings.Contains(res.Plan.Local.SQL(), "o2_f") {
		t.Errorf("expected per-table fetches:\n%s", res.Plan.Describe())
	}
}
