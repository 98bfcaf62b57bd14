package planner

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/enc"
	"repro/internal/netsim"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// testContext builds a two-table context with a rich design.
func testContext(t testing.TB) *Context {
	t.Helper()
	cat := storage.NewCatalog()
	o, err := cat.Create(storage.Schema{
		Name: "orders",
		Cols: []storage.Column{
			{Name: "o_id", Type: storage.TInt},
			{Name: "o_cust", Type: storage.TStr},
			{Name: "o_total", Type: storage.TInt},
			{Name: "o_date", Type: storage.TDate},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	items, err := cat.Create(storage.Schema{
		Name: "items",
		Cols: []storage.Column{
			{Name: "i_order", Type: storage.TInt},
			{Name: "i_qty", Type: storage.TInt},
			{Name: "i_tag", Type: storage.TStr},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 50; i++ {
		o.MustInsert([]value.Value{
			value.NewInt(i), value.NewStr("c" + string(rune('a'+i%5))),
			value.NewInt(i * 10), value.NewDate(9000 + i),
		})
		items.MustInsert([]value.Value{
			value.NewInt(i), value.NewInt(i % 7), value.NewStr("tag word"),
		})
	}
	ks, err := enc.NewKeyStore([]byte("planner-test"), 256)
	if err != nil {
		t.Fatal(err)
	}
	design := &enc.Design{GroupedAddition: true, MultiRowPacking: true}
	add := func(it enc.Item) { design.Add(it) }
	jg := "orderkey"
	det := func(tbl, col string, kind value.Kind, group string) {
		it := enc.ColumnItem(tbl, col, enc.DET, kind)
		it.JoinGroup = group
		add(it)
	}
	det("orders", "o_id", value.Int, jg)
	det("orders", "o_cust", value.Str, "")
	det("orders", "o_total", value.Int, "")
	det("orders", "o_date", value.Date, "")
	det("items", "i_order", value.Int, jg)
	det("items", "i_qty", value.Int, "")
	det("items", "i_tag", value.Str, "")
	add(enc.ColumnItem("orders", "o_total", enc.OPE, value.Int))
	add(enc.ColumnItem("orders", "o_total", enc.HOM, value.Int))
	add(enc.ColumnItem("items", "i_tag", enc.SEARCH, value.Str))

	ctx := NewContext(cat, design, ks, DefaultCostModel(netsim.Default()))
	ctx.JoinGroups["orders.o_id"] = jg
	ctx.JoinGroups["items.i_order"] = jg
	ctx.EnablePrefilter = true
	return ctx
}

func prep(t testing.TB, sql string) *ast.Query {
	t.Helper()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExtractUnitsShapes(t *testing.T) {
	ctx := testContext(t)
	q := prep(t, `SELECT o_cust, SUM(o_total) FROM orders
		WHERE o_total > 100 AND o_cust = 'ca'
		GROUP BY o_cust HAVING SUM(o_total) > 500`)
	units, err := ctx.ExtractUnits(q)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, u := range units {
		ids[u.ID] = true
	}
	for _, want := range []string{"where:0", "where:1", "groupby", "agg:hom", "prefilter"} {
		if !ids[want] {
			t.Errorf("missing unit %q (got %v)", want, ids)
		}
	}
}

func TestUnitItemsMatchOperations(t *testing.T) {
	ctx := testContext(t)
	q := prep(t, `SELECT o_id FROM orders WHERE o_total BETWEEN 10 AND 90`)
	units, err := ctx.ExtractUnits(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 {
		t.Fatalf("units = %d", len(units))
	}
	if units[0].Items[0].Scheme != enc.OPE {
		t.Errorf("between should want OPE, got %v", units[0].Items[0].Scheme)
	}

	// A unit's items are what the rewriter reports when it runs against a
	// design that has them: one traversal, two item sources.
	for _, sql := range []string{
		`SELECT o_id FROM orders WHERE o_total BETWEEN 10 AND 90`,
		`SELECT o_id FROM orders, items WHERE o_id = i_order AND i_tag LIKE '%word%' AND (o_total > 100 OR o_cust = 'ca')`,
		`SELECT o_id FROM orders WHERE o_id IN (SELECT i_order FROM items WHERE i_qty = 3)`,
		`SELECT o_id FROM orders WHERE EXISTS (SELECT 1 FROM items WHERE i_order = o_id AND i_qty IN (1, 2))`,
	} {
		q := prep(t, sql)
		units, err := ctx.ExtractUnits(q)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ctx.newScope(q)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range ast.Conjuncts(q.Where) {
			_, used, ok := ctx.rewritePred(s, c)
			if !ok {
				t.Fatalf("%s: conjunct %d not rewritable under the rich design", sql, i)
			}
			var unit *Unit
			for j := range units {
				if units[j].ID == fmt.Sprintf("where:%d", i) {
					unit = &units[j]
				}
			}
			if unit == nil {
				t.Fatalf("%s: no unit for conjunct %d", sql, i)
			}
			want := itemKeys(unit.Items)
			got := itemKeys(dedupItems(derefItems(used)))
			if got != want {
				t.Errorf("%s: conjunct %d: rewriter used %s, unit has %s", sql, i, got, want)
			}
		}
	}
}

// itemKeys renders an item set canonically.
func itemKeys(items []enc.Item) string {
	keys := make([]string, len(items))
	for i := range items {
		keys[i] = items[i].Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

func TestJoinUnitRequiresSharedGroup(t *testing.T) {
	ctx := testContext(t)
	q := prep(t, `SELECT o_id FROM orders, items WHERE o_id = i_order`)
	units, err := ctx.ExtractUnits(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 {
		t.Fatalf("units = %d", len(units))
	}
	for _, it := range units[0].Items {
		if it.JoinGroup != "orderkey" {
			t.Errorf("join items must share the group, got %q", it.JoinGroup)
		}
	}
	// Without a registered group, the join is not pushable as a unit.
	ctx2 := testContext(t)
	ctx2.JoinGroups = map[string]string{}
	units2, err := ctx2.ExtractUnits(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(units2) != 0 {
		t.Errorf("join without group should yield no pushable unit, got %v", units2)
	}
}

func TestGenerateGreedyPushesEverything(t *testing.T) {
	ctx := testContext(t)
	q := prep(t, `SELECT o_cust, SUM(o_total) AS s FROM orders WHERE o_total > 100 GROUP BY o_cust ORDER BY s DESC`)
	plan, err := ctx.Generate(q)
	if err != nil {
		t.Fatal(err)
	}
	sql := plan.Remote.Query.SQL()
	if !strings.Contains(sql, "o_total_ope") {
		t.Errorf("filter not pushed: %s", sql)
	}
	if !strings.Contains(sql, "GROUP BY") || !strings.Contains(sql, "paillier_sum") {
		t.Errorf("grouping/hom not pushed: %s", sql)
	}
	if len(plan.UsedItems) == 0 {
		t.Error("plan should record its BestSet items")
	}
}

// Every item a plan reports must exist in the design it was generated
// against: the rewriter reports what it read, nothing it might have.
func TestUsedItemsSubsetOfDesign(t *testing.T) {
	rich := testContext(t)
	// The §5.1 precomputed boolean of o_total > 100, and no OPE(o_total).
	pc, err := sqlparser.ParseExpr("o_total > 100")
	if err != nil {
		t.Fatal(err)
	}
	pcItem := enc.ExprItem("orders", pc, enc.DET, value.Bool)
	precomp := &enc.Design{GroupedAddition: true, MultiRowPacking: true}
	bare := &enc.Design{}
	for _, it := range rich.Design.Items {
		if it.Scheme == enc.DET {
			bare.Add(it)
		}
		if it.Scheme != enc.OPE {
			precomp.Add(it)
		}
	}
	precomp.Add(pcItem)

	queries := []string{
		`SELECT o_cust, SUM(o_total) AS s FROM orders WHERE o_total > 100 GROUP BY o_cust ORDER BY s DESC`,
		`SELECT o_id FROM orders WHERE o_total > 100 AND o_cust = 'ca'`,
		`SELECT o_id FROM orders WHERE o_total BETWEEN 10 AND 90 AND o_cust IS NULL`,
		`SELECT o_id FROM orders, items WHERE o_id = i_order AND i_tag LIKE '%word%'`,
		`SELECT o_cust, SUM(CASE WHEN o_total > 100 THEN o_total ELSE 0 END), COUNT(*), MAX(o_total) FROM orders GROUP BY o_cust`,
		`SELECT o_id FROM orders WHERE EXISTS (SELECT 1 FROM items WHERE i_order = o_id AND i_qty = 3)`,
		`SELECT o_id FROM orders WHERE o_id IN (SELECT i_order FROM items WHERE i_qty > 2)`,
		`SELECT o_id FROM orders WHERE o_total > (SELECT SUM(i_qty) FROM items WHERE i_order = o_id AND i_tag LIKE '%word%')`,
		`SELECT COUNT(*) FROM orders WHERE o_total > 100`,
	}
	for name, d := range map[string]*enc.Design{"rich": rich.Design, "bare": bare, "precomputed": precomp} {
		ctx := rich.WithDesign(d)
		for _, sql := range queries {
			plan, err := ctx.Generate(prep(t, sql))
			if err != nil {
				t.Fatalf("%s: %s: %v", name, sql, err)
			}
			usesPC := false
			for i := range plan.UsedItems {
				it := &plan.UsedItems[i]
				if _, ok := d.Find(it.Table, it.ExprSQL(), it.Scheme); !ok {
					t.Errorf("%s: %s: plan reports %s, which the design does not have\n%s", name, sql, it.Key(), plan.Describe())
				}
				usesPC = usesPC || it.Key() == pcItem.Key()
			}
			pushedPC := false
			for _, part := range plan.AllParts() {
				pushedPC = pushedPC || strings.Contains(part.Query.SQL(), pcItem.ColumnName())
			}
			if pushedPC && !usesPC {
				t.Errorf("%s: %s: plan filters on %s but does not report %s", name, sql, pcItem.ColumnName(), pcItem.Key())
			}
			if name == "precomputed" && strings.Contains(sql, "WHERE o_total > 100") && !pushedPC {
				t.Errorf("%s: %s: precomputed predicate not pushed\n%s", name, sql, plan.Describe())
			}
		}
	}
}

// Derived tables reach the residual FROM in the query's FROM order, every
// time (it used to be a map iteration).
func TestResidualFromOrderDeterministic(t *testing.T) {
	ctx := testContext(t)
	q := prep(t, `SELECT a.c, a.m, b.n FROM
		(SELECT o_cust AS c, MAX(o_total) AS m FROM orders GROUP BY o_cust) a,
		(SELECT o_cust AS c, COUNT(*) AS n FROM orders GROUP BY o_cust) b
		WHERE a.c = b.c`)
	for i := 0; i < 40; i++ {
		plan, err := ctx.Generate(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.Local.SQL(); !strings.Contains(got, "FROM r1 a, r3 b") {
			t.Fatalf("generation %d: residual FROM out of order: %s", i, got)
		}
	}
}

func TestBestPlanFeasibleWithoutUnits(t *testing.T) {
	// A design with only DET fetch columns still plans everything
	// (client-side residual).
	ctx := testContext(t)
	bare := &enc.Design{}
	for _, it := range ctx.Design.Items {
		if it.Scheme == enc.DET {
			bare.Add(it)
		}
	}
	ctx2 := ctx.WithDesign(bare)
	q := prep(t, `SELECT o_cust, SUM(o_total) FROM orders WHERE o_total > 100 GROUP BY o_cust`)
	plan, err := ctx2.BestPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.Remote.Query.SQL(), "ope") {
		t.Error("bare design cannot use OPE")
	}
	if plan.Local == nil {
		t.Error("residual local query expected")
	}
}

func TestBestPlanCostMonotonicity(t *testing.T) {
	// The chosen plan must never cost more than the greedy plan.
	ctx := testContext(t)
	q := prep(t, `SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust`)
	best, err := ctx.BestPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := ctx.Generate(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx.CostPlan(greedy)
	if best.EstTotal() > greedy.EstTotal()+1e-9 {
		t.Errorf("best (%v) costs more than greedy (%v)", best.EstTotal(), greedy.EstTotal())
	}
}

func TestPrepareFoldsAndLowers(t *testing.T) {
	q := prep(t, `SELECT AVG(o_total) FROM orders WHERE o_date < date '1995-01-01' + interval '1' year`)
	// AVG lowered to SUM/COUNT.
	if strings.Contains(q.SQL(), "AVG") {
		t.Errorf("AVG not lowered: %s", q.SQL())
	}
	if !strings.Contains(q.SQL(), "date '1996-01-01'") {
		t.Errorf("interval not folded: %s", q.SQL())
	}
}

func TestPrepareResolvesAliases(t *testing.T) {
	q := prep(t, `SELECT o_cust, SUM(o_total) AS rev FROM orders GROUP BY o_cust HAVING rev > 10 ORDER BY rev`)
	if !strings.Contains(q.Having.SQL(), "SUM") {
		t.Errorf("alias not inlined in HAVING: %s", q.Having.SQL())
	}
	if !strings.Contains(q.OrderBy[0].Expr.SQL(), "SUM") {
		t.Errorf("alias not inlined in ORDER BY: %s", q.OrderBy[0].Expr.SQL())
	}
}

func TestPrepareFlattensDerived(t *testing.T) {
	q := prep(t, `SELECT x, SUM(v) FROM (SELECT o_cust AS x, o_total AS v FROM orders WHERE o_total > 5) t GROUP BY x`)
	if len(q.From) != 1 || q.From[0].Sub != nil {
		t.Fatalf("derived table not flattened: %s", q.SQL())
	}
	if !strings.Contains(q.SQL(), "o_total") {
		t.Errorf("projection substitution missing: %s", q.SQL())
	}
}

func TestPrepareKeepsGroupedDerived(t *testing.T) {
	q := prep(t, `SELECT m FROM (SELECT MAX(o_total) AS m FROM orders GROUP BY o_cust) t`)
	if q.From[0].Sub == nil {
		t.Error("grouped derived table must not flatten")
	}
}

func TestBindParams(t *testing.T) {
	raw := sqlparser.MustParse(`SELECT o_id FROM orders WHERE o_cust = :1`)
	q, err := Prepare(raw, map[string]value.Value{"1": value.NewStr("ca")})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.SQL(), "'ca'") {
		t.Errorf("param not bound: %s", q.SQL())
	}
	if _, err := Prepare(raw, nil); err == nil {
		t.Error("unbound param must fail")
	}
}

func TestRewritePredForms(t *testing.T) {
	ctx := testContext(t)
	q := prep(t, `SELECT o_id FROM orders, items WHERE o_id = i_order`)
	s, err := ctx.newScope(q)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sql   string
		want  string // substring expected in the rewritten predicate
		items string // keys of the items the rewrite reports
	}{
		{"o_cust = 'ca'", "o_cust_det", "orders|o_cust|DET"},
		{"o_total > 100", "o_total_ope", "orders|o_total|OPE"},
		{"o_total BETWEEN 10 AND 20", "o_total_ope", "orders|o_total|OPE"},
		{"o_cust IN ('a','b')", "o_cust_det", "orders|o_cust|DET"},
		{"i_tag LIKE '%word%'", "search_match", "items|i_tag|SEARCH"},
		{"o_id = i_order", "i_order_det", "items|i_order|DET orders|o_id|DET"},
		{"o_cust = 'ca' OR NOT o_total > 100", "o_total_ope", "orders|o_cust|DET orders|o_total|OPE"},
		{"i_tag IS NULL", "i_tag_det", "items|i_tag|DET"},
	}
	for _, c := range cases {
		e, err := sqlparser.ParseExpr(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		out, used, ok := ctx.rewritePred(s, e)
		if !ok {
			t.Errorf("rewrite %q failed", c.sql)
			continue
		}
		if !strings.Contains(out.SQL(), c.want) {
			t.Errorf("rewrite %q = %s, want %q inside", c.sql, out.SQL(), c.want)
		}
		if got := itemKeys(derefItems(used)); got != c.items {
			t.Errorf("rewrite %q used %s, want %s", c.sql, got, c.items)
		}
	}
	// Negative cases: not rewritable with this design.
	for _, bad := range []string{
		"o_total + i_qty > 5", // cross-table arithmetic
		"i_tag LIKE 'word%'",  // anchored pattern
		"o_cust > 'a'",        // OPE over strings unsupported
		"o_total * 2 = 10",    // no precomputed expression item
	} {
		e, err := sqlparser.ParseExpr(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, used, ok := ctx.rewritePred(s, e); ok || used != nil {
			t.Errorf("rewrite %q should fail and report no items (%v)", bad, used)
		}
	}
}

func TestBuildJoinGroupsUnionFind(t *testing.T) {
	ctx := testContext(t)
	queries := []*ast.Query{
		prep(t, `SELECT o_id FROM orders, items WHERE o_id = i_order`),
	}
	jg := BuildJoinGroups(ctx, queries)
	if jg["orders.o_id"] == "" || jg["orders.o_id"] != jg["items.i_order"] {
		t.Errorf("join groups = %v", jg)
	}
	// Correlated predicate inside EXISTS also unions.
	queries = append(queries, prep(t,
		`SELECT o_id FROM orders WHERE EXISTS (SELECT 1 FROM items WHERE i_order = o_id)`))
	jg = BuildJoinGroups(ctx, queries)
	if jg["orders.o_id"] != jg["items.i_order"] {
		t.Error("correlation should union the same group")
	}
}

func TestStatsCollection(t *testing.T) {
	ctx := testContext(t)
	ts := ctx.Stats.Table("orders")
	if ts.Rows != 50 {
		t.Errorf("rows = %d", ts.Rows)
	}
	cs := ts.Col("o_cust")
	if cs.NDV != 5 {
		t.Errorf("ndv(o_cust) = %d", cs.NDV)
	}
	tot := ts.Col("o_total")
	if tot.Min != 10 || tot.Max != 500 {
		t.Errorf("o_total range = [%d,%d]", tot.Min, tot.Max)
	}
	// Defaults for unknown names.
	if ctx.Stats.Table("nope").Rows == 0 {
		t.Error("unknown table gets defaults")
	}
	if ts.Col("nope").NDV == 0 {
		t.Error("unknown column gets defaults")
	}
}

func TestStripEncSuffix(t *testing.T) {
	cases := map[string][2]any{
		"o_total_ope": {"o_total", true},
		"o_cust_det":  {"o_cust", true},
		"x_rnd":       {"x", true},
		"y_srch":      {"y", true},
		"plain":       {"plain", false},
		"_det":        {"_det", false},
	}
	for in, want := range cases {
		got, ok := StripEncSuffix(in)
		if got != want[0].(string) || ok != want[1].(bool) {
			t.Errorf("StripEncSuffix(%q) = (%q,%v)", in, got, ok)
		}
	}
}

func TestHomPlaceholderRoundTrip(t *testing.T) {
	s := homPlaceholder("lineitem", "(a * b)")
	tbl, expr, ok := ParseHomPlaceholder(s)
	if !ok || tbl != "lineitem" || expr != "(a * b)" {
		t.Errorf("round trip = %q %q %v", tbl, expr, ok)
	}
	if _, _, ok := ParseHomPlaceholder("nope"); ok {
		t.Error("non-placeholder must not parse")
	}
}
