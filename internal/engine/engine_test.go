package engine

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// fixture builds a small two-table database:
//
//	orders(o_id, o_cust, o_total, o_date)
//	items(i_order, i_qty, i_price, i_tag)
func fixture(t *testing.T) *Engine {
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
	rows := []struct {
		id    int64
		cust  string
		total int64
		date  string
	}{
		{1, "alice", 100, "1995-01-15"},
		{2, "bob", 250, "1995-06-01"},
		{3, "alice", 40, "1996-02-20"},
		{4, "carol", 900, "1996-07-04"},
		{5, "bob", 10, "1997-03-30"},
	}
	for _, r := range rows {
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
	irows := []struct {
		order, qty, price int64
		tag               string
	}{
		{1, 2, 30, "red widget"},
		{1, 1, 40, "green gadget"},
		{2, 5, 50, "red gadget"},
		{3, 1, 40, "blue widget"},
		{4, 10, 90, "green widget"},
		{4, 3, 10, "red trinket"},
		{5, 1, 10, "blue trinket"},
	}
	for _, r := range irows {
		items.MustInsert([]value.Value{
			value.NewInt(r.order), value.NewInt(r.qty), value.NewInt(r.price), value.NewStr(r.tag),
		})
	}
	return New(cat)
}

func run(t *testing.T, e *Engine, sql string, params map[string]value.Value) *Result {
	t.Helper()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	res, err := e.Execute(q, params)
	if err != nil {
		t.Fatalf("execute %q: %v", sql, err)
	}
	return res
}

func TestScanAndFilter(t *testing.T) {
	e := fixture(t)
	res := run(t, e, "SELECT o_id FROM orders WHERE o_total > 100", nil)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Stats.BytesScanned == 0 || res.Stats.RowsScanned != 5 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestProjectionExpressions(t *testing.T) {
	e := fixture(t)
	res := run(t, e, "SELECT o_id, o_total * 2 AS dbl FROM orders WHERE o_id = 1", nil)
	if res.Rows[0][1].AsInt() != 200 {
		t.Errorf("dbl = %v", res.Rows[0][1])
	}
	if res.Cols[1] != "dbl" {
		t.Errorf("col name = %q", res.Cols[1])
	}
}

func TestHashJoin(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT o_cust, i_tag FROM orders, items WHERE o_id = i_order AND o_total >= 100`, nil)
	// orders 1,2,4 qualify -> items 2+1+2 = 5 rows
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
}

func TestJoinQualifiedColumns(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT o.o_id, i.i_qty FROM orders o, items i WHERE o.o_id = i.i_order AND i.i_qty > 4`, nil)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestGroupByHaving(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT o_cust, SUM(o_total) AS s FROM orders GROUP BY o_cust HAVING SUM(o_total) > 100 ORDER BY s DESC`, nil)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (carol 900, bob 260, alice 140)", len(res.Rows))
	}
	if res.Rows[0][0].S != "carol" || res.Rows[0][1].AsInt() != 900 {
		t.Errorf("first = %v", res.Rows[0])
	}
	if res.Rows[2][0].S != "alice" || res.Rows[2][1].AsInt() != 140 {
		t.Errorf("last = %v", res.Rows[2])
	}
}

func TestHavingAliasReference(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT o_cust, SUM(o_total) AS total FROM orders GROUP BY o_cust HAVING total > 200`, nil)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestAggregatesOverEmptyInput(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT COUNT(*), SUM(o_total), AVG(o_total), MIN(o_total) FROM orders WHERE o_total > 99999`, nil)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if row[0].AsInt() != 0 {
		t.Errorf("count = %v", row[0])
	}
	for i := 1; i < 4; i++ {
		if !row[i].IsNull() {
			t.Errorf("agg %d over empty input = %v, want NULL", i, row[i])
		}
	}
}

func TestCountDistinct(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT COUNT(DISTINCT o_cust) FROM orders`, nil)
	if res.Rows[0][0].AsInt() != 3 {
		t.Errorf("count distinct = %v", res.Rows[0][0])
	}
}

func TestAvgMinMax(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT AVG(o_total), MIN(o_total), MAX(o_total) FROM orders`, nil)
	if got := res.Rows[0][0].AsFloat(); got != 260 {
		t.Errorf("avg = %v", got)
	}
	if res.Rows[0][1].AsInt() != 10 || res.Rows[0][2].AsInt() != 900 {
		t.Errorf("min/max = %v %v", res.Rows[0][1], res.Rows[0][2])
	}
}

func TestOrderByLimit(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT o_id FROM orders ORDER BY o_total DESC LIMIT 2`, nil)
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 4 || res.Rows[1][0].AsInt() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT DISTINCT o_cust FROM orders`, nil)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestLikeAndInList(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT i_tag FROM items WHERE i_tag LIKE '%widget%' AND i_qty IN (1, 2)`, nil)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (red widget qty 2, blue widget qty 1)", len(res.Rows))
	}
	res = run(t, e, `SELECT i_tag FROM items WHERE i_tag NOT LIKE 'red%'`, nil)
	if len(res.Rows) != 4 {
		t.Fatalf("not like rows = %d, want 4", len(res.Rows))
	}
}

func TestBetweenDates(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT o_id FROM orders WHERE o_date BETWEEN date '1995-01-01' AND date '1995-12-31'`, nil)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestDateIntervalArithmetic(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT o_id FROM orders WHERE o_date >= date '1995-01-01' AND o_date < date '1995-01-01' + interval '1' year`, nil)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestExtractYearGrouping(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT extract(year from o_date) AS y, COUNT(*) FROM orders GROUP BY extract(year from o_date) ORDER BY y`, nil)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if res.Rows[0][0].AsInt() != 1995 || res.Rows[0][1].AsInt() != 2 {
		t.Errorf("1995 group = %v", res.Rows[0])
	}
}

func TestCaseExpression(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT SUM(CASE WHEN o_cust = 'alice' THEN o_total ELSE 0 END) FROM orders`, nil)
	if res.Rows[0][0].AsInt() != 140 {
		t.Errorf("case sum = %v", res.Rows[0][0])
	}
}

func TestParamsBinding(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT o_id FROM orders WHERE o_cust = :1`, map[string]value.Value{"1": value.NewStr("bob")})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	q := sqlparser.MustParse(`SELECT o_id FROM orders WHERE o_cust = :1`)
	if _, err := e.Execute(q, nil); err == nil {
		t.Error("unbound param should error")
	}
}

func TestScalarSubqueryUncorrelated(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT o_id FROM orders WHERE o_total > (SELECT AVG(o_total) FROM orders)`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestScalarSubqueryCorrelated(t *testing.T) {
	e := fixture(t)
	// Orders whose total exceeds the sum of their item prices.
	res := run(t, e, `SELECT o_id FROM orders WHERE o_total > (SELECT SUM(i_price * i_qty) FROM items WHERE i_order = o_id) ORDER BY o_id`, nil)
	// order 1: 100 vs 2*30+1*40=100 no; order 2: 250 vs 250 no; order 3: 40 vs 40 no;
	// order 4: 900 vs 10*90+3*10=930 no; order 5: 10 vs 10 no
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v, want none", res.Rows)
	}
	res = run(t, e, `SELECT o_id FROM orders WHERE o_total >= (SELECT SUM(i_price * i_qty) FROM items WHERE i_order = o_id) ORDER BY o_id`, nil)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (all but order 4)", len(res.Rows))
	}
}

func TestInSubqueryUncorrelated(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT o_id FROM orders WHERE o_id IN (SELECT i_order FROM items WHERE i_qty >= 5)`, nil)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (orders 2 and 4)", len(res.Rows))
	}
}

func TestExistsDecorrelated(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT o_id FROM orders WHERE EXISTS (SELECT 1 FROM items WHERE i_order = o_id AND i_tag LIKE 'red%') ORDER BY o_id`, nil)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (orders 1,2,4)", len(res.Rows))
	}
	before := res.Stats.SubqueryRuns
	if before == 0 {
		t.Error("expected decorrelated subquery to be counted")
	}
	// Decorrelated: one subquery run regardless of outer cardinality.
	if before > 1 {
		t.Errorf("subquery runs = %d, want 1 (decorrelated)", before)
	}
}

func TestNotExistsWithResidualPredicate(t *testing.T) {
	e := fixture(t)
	// Orders with no *other* item sharing the same order (i.e. exactly the
	// multi-item orders fail the NOT EXISTS).
	res := run(t, e, `SELECT o_id FROM orders WHERE NOT EXISTS (
		SELECT 1 FROM items i2 WHERE i2.i_order = o_id AND i2.i_price <> 40
	) ORDER BY o_id`, nil)
	// order 1 has prices {30,40} -> exists(price<>40) -> excluded
	// order 2 {50} excluded; order 3 {40} kept; order 4 {90,10} excluded; order 5 {10} excluded
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("rows = %v, want [3]", res.Rows)
	}
}

func TestDerivedTable(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT c, s FROM (SELECT o_cust AS c, SUM(o_total) AS s FROM orders GROUP BY o_cust) t WHERE s > 200 ORDER BY s DESC`, nil)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0][0].S != "carol" {
		t.Errorf("first = %v", res.Rows[0])
	}
}

func TestCrossJoinFallback(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT COUNT(*) FROM orders, items WHERE o_total > 500`, nil)
	// 1 order × 7 items
	if res.Rows[0][0].AsInt() != 7 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestMultiTableResidualPredicate(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT COUNT(*) FROM orders, items WHERE o_id = i_order AND o_total > i_price * i_qty`, nil)
	// order1: 100>60 T, 100>40 T; order2: 250>250 F; order3: 40>40 F;
	// order4: 900>900 F, 900>30 T; order5: 10>10 F  => 3
	if res.Rows[0][0].AsInt() != 3 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestScalarUDF(t *testing.T) {
	e := fixture(t)
	e.RegisterScalar("double_it", func(st *Stats, args []value.Value) (value.Value, error) {
		return value.NewInt(args[0].AsInt() * 2), nil
	})
	res := run(t, e, `SELECT double_it(o_total) FROM orders WHERE o_id = 1`, nil)
	if res.Rows[0][0].AsInt() != 200 {
		t.Errorf("udf = %v", res.Rows[0][0])
	}
}

type sumUDF struct{ n int64 }

func (s *sumUDF) Add(args []value.Value) error {
	s.n += args[0].AsInt()
	return nil
}
func (s *sumUDF) Merge(other AggState) error {
	o, ok := other.(*sumUDF)
	if !ok {
		return fmt.Errorf("merge of mismatched state %T", other)
	}
	s.n += o.n
	return nil
}

func (s *sumUDF) Result() (value.Value, error) { return value.NewInt(s.n), nil }

func TestAggregateUDF(t *testing.T) {
	e := fixture(t)
	e.RegisterAgg("my_sum", func(st *Stats) AggState { return &sumUDF{} })
	res := run(t, e, `SELECT o_cust, my_sum(o_total) FROM orders GROUP BY o_cust ORDER BY o_cust`, nil)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].S != "alice" || res.Rows[0][1].AsInt() != 140 {
		t.Errorf("alice = %v", res.Rows[0])
	}
}

func TestSubstring(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT substring(i_tag from 1 for 3) FROM items WHERE i_order = 2`, nil)
	if res.Rows[0][0].S != "red" {
		t.Errorf("substring = %v", res.Rows[0][0])
	}
}

// TestSubstringEdges: a negative length is a typed error, not a slice panic
// (including one that overflows start+n); a NULL argument yields NULL; a
// length or start past the end clamps.
func TestSubstringEdges(t *testing.T) {
	e := fixture(t)
	for _, sql := range []string{
		`SELECT substring(i_tag, 2, -1) FROM items`,
		`SELECT substring(i_tag, 3, -9223372036854775807) FROM items`,
	} {
		if _, err := e.Execute(sqlparser.MustParse(sql), nil); !errors.Is(err, ErrNegativeSubstringLength) {
			t.Errorf("%s: err = %v, want ErrNegativeSubstringLength", sql, err)
		}
	}
	for sql, want := range map[string]value.Value{
		`SELECT substring(i_tag, 2, NULL) FROM items WHERE i_order = 2`:                value.NewNull(),
		`SELECT substring(i_tag, NULL, 2) FROM items WHERE i_order = 2`:                value.NewNull(),
		`SELECT substring(i_tag, 1, 9223372036854775807) FROM items WHERE i_order = 2`: value.NewStr("red gadget"),
		`SELECT substring(i_tag, 2, 9223372036854775807) FROM items WHERE i_order = 2`: value.NewStr("ed gadget"),
		`SELECT substring(i_tag, 12, 2) FROM items WHERE i_order = 2`:                  value.NewStr(""),
	} {
		res, err := e.Execute(sqlparser.MustParse(sql), nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := res.Rows[0][0]; got.IsNull() != want.IsNull() || got.S != want.S {
			t.Errorf("%s = %v, want %v", sql, got, want)
		}
	}
}

func TestUnknownColumnError(t *testing.T) {
	e := fixture(t)
	q := sqlparser.MustParse(`SELECT nope FROM orders`)
	if _, err := e.Execute(q, nil); err == nil {
		t.Error("expected unknown column error")
	}
}

func TestUnknownTableError(t *testing.T) {
	e := fixture(t)
	q := sqlparser.MustParse(`SELECT x FROM missing`)
	if _, err := e.Execute(q, nil); err == nil {
		t.Error("expected unknown table error")
	}
}

func TestUnknownFunctionError(t *testing.T) {
	e := fixture(t)
	q := sqlparser.MustParse(`SELECT nosuchfn(o_id) FROM orders`)
	if _, err := e.Execute(q, nil); err == nil {
		t.Error("expected unknown function error")
	}
}

func TestResultBytes(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT o_id FROM orders`, nil)
	// 5 rows × (8 bytes int + 4 framing)
	if res.Bytes() != 5*12 {
		t.Errorf("bytes = %d", res.Bytes())
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_ll", false},
		{"hello", "%x%", false},
		{"", "%", true},
		{"", "", true},
		{"abc", "", false},
		{"green widget", "%green%", true},
		{"a%b", "a%b", true}, // % in pattern is wildcard, still matches
		{"foobarbaz", "%foo%baz", true},
		{"foobarbaz", "%bar%foo%", false},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestGroupByExpressionKey(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT o_total / 100, COUNT(*) FROM orders GROUP BY o_total / 100`, nil)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestOrderByExpressionNotProjected(t *testing.T) {
	e := fixture(t)
	res := run(t, e, `SELECT o_id FROM orders ORDER BY o_date DESC`, nil)
	if res.Rows[0][0].AsInt() != 5 {
		t.Errorf("first by date desc = %v", res.Rows[0][0])
	}
}
