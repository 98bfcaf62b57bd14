package planner

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
	"repro/internal/tpch"
)

// hoistSeeds are FuzzHoistBind's hand-written seeds: the root differential
// suite's breaker shapes (subqueries in every position, a grouped derived
// table, a multi-key sort) and the derived-table shapes whose flattening
// must not reach into nested blocks.
var hoistSeeds = []string{
	"SELECT s_id, s_price FROM sales WHERE s_cat IN (SELECT c_name FROM cats WHERE c_tier < 3) ORDER BY s_id",
	"SELECT c_tier, c_region FROM cats WHERE c_tier IN (SELECT s_qty FROM sales WHERE s_cat = c_name) ORDER BY c_tier",
	"SELECT c_tier, c_region FROM cats WHERE EXISTS (SELECT 1 FROM sales WHERE s_qty < 12 AND s_price > 600) ORDER BY c_tier",
	"SELECT c_tier, c_region FROM cats WHERE EXISTS (SELECT 1 FROM sales WHERE s_cat = c_name AND s_qty < 3) ORDER BY c_tier",
	"SELECT s_id, s_price FROM sales WHERE s_qty = (SELECT MAX(s_qty) FROM sales) ORDER BY s_id",
	"SELECT c_tier, c_region FROM cats WHERE c_tier < (SELECT COUNT(*) FROM sales WHERE s_cat = c_name AND s_qty < 2) ORDER BY c_tier",
	"SELECT cat, total FROM (SELECT s_cat AS cat, SUM(s_price) AS total FROM sales GROUP BY s_cat) t WHERE total > 20000 ORDER BY cat",
	"SELECT s_id, s_qty, s_price FROM sales WHERE s_price >= 250 ORDER BY s_qty DESC, s_price, s_id",
	"SELECT c_name, c_tier FROM cats ORDER BY (SELECT COUNT(*) FROM sales WHERE s_qty < 5 AND s_cat = c_name), c_tier",
	"SELECT c_tier, COUNT(*) FROM cats GROUP BY c_tier, (SELECT COUNT(*) FROM sales WHERE s_qty < 5 AND s_cat = c_name) ORDER BY c_tier",
	"SELECT d.s_id FROM (SELECT s_id, s_qty AS s_price FROM sales WHERE s_price > 900) d ORDER BY d.s_id",
	"SELECT d.s_id FROM (SELECT s_id, s_price AS c_tier FROM sales) d WHERE EXISTS (SELECT 1 FROM cats WHERE c_tier = 3) ORDER BY d.s_id",
	"SELECT d.s_id FROM (SELECT s_id, s_qty AS s_price, s_price AS s_qty FROM sales) d WHERE d.s_id < 50 AND EXISTS (SELECT 1 FROM cats WHERE c_tier = d.s_qty) ORDER BY d.s_id",
}

// BenchmarkHoistLiterals times the per-execution hoist (the client's shape
// key and the transport's RemoteSQL rendering both run it): the hotpath
// workload's three prepared shapes, and TPC-H Q20, whose literals sit in a
// subquery two blocks down.
func BenchmarkHoistLiterals(b *testing.B) {
	for _, c := range []struct{ name, sql string }{
		{"point", `SELECT e_id, e_val FROM ev WHERE e_id = :id`},
		{"range", `SELECT e_id, e_val FROM ev WHERE e_val BETWEEN :lo AND :hi`},
		{"sum1", `SELECT SUM(e_val), COUNT(*) FROM ev WHERE e_grp = :g`},
		{"q20", tpch.Queries[20]},
	} {
		q := sqlparser.MustParse(c.sql)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hoistSink, _, _ = HoistLiterals(q, "$h")
			}
		})
	}
}

var hoistSink *ast.Query

// FuzzHoistBind: for any statement the parser accepts, hoisting its literals
// and binding them back (what a plan-cache miss does) prepares to the same
// SQL as preparing the statement itself, or both fail; neither panics. The
// hoisted shape holds no literal, one slot per occurrence, and hoisting is
// deterministic. The prefix is one the lexer cannot produce, so a
// statement's own parameters never collide with a slot.
func FuzzHoistBind(f *testing.F) {
	for _, n := range tpch.SupportedQueries() {
		f.Add(tpch.Queries[n])
	}
	for _, sql := range hoistSeeds {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			return
		}
		want, werr := Prepare(q, nil)
		shape, vals, order := HoistLiterals(q, "$h")
		got, _, gerr := PrepareTagged(shape, vals)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s\nprepared: %v\nhoisted and bound: %v", sql, werr, gerr)
		}
		if werr == nil && got.SQL() != want.SQL() {
			t.Fatalf("%s\nprepared:          %s\nhoisted and bound: %s", sql, want.SQL(), got.SQL())
		}
		if len(vals) != len(order) {
			t.Fatalf("%s: %d slot values for %d slots %v", sql, len(vals), len(order), order)
		}
		ast.WalkStatement(shape, func(e ast.Expr) {
			if l, ok := e.(*ast.Literal); ok {
				t.Fatalf("%s: literal %s left in shape %s", sql, l.SQL(), shape.SQL())
			}
		})
		if again, _, _ := HoistLiterals(q, "$h"); again.SQL() != shape.SQL() {
			t.Fatalf("%s: hoisting twice gave\n%s\n%s", sql, shape.SQL(), again.SQL())
		}
	})
}
