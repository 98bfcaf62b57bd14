package ast_test

import (
	"math"
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
)

// TestSelectivityMissingStatistics: an equality, or an IN element, whose
// sides have no NDV keeps every row, however AND, OR and NOT combine it —
// the one rule the planner's cost model and the engine's join order share.
// Beside it, the same predicates over a column with an NDV keep 1/NDV per
// equality or element.
func TestSelectivityMissingStatistics(t *testing.T) {
	none := func(ast.Expr) int64 { return 0 }
	x4 := func(e ast.Expr) int64 {
		if c, ok := e.(*ast.ColumnRef); ok && c.Column == "x" {
			return 4
		}
		return 0
	}
	for _, c := range []struct {
		where    string
		none, x4 float64 // kept fraction with no NDV anywhere, and with NDV(x) = 4
	}{
		{"x = 1", 1, 0.25},
		{"1 = x", 1, 0.25},
		{"x = y", 1, 0.25},
		{"x IN (1, 2)", 1, 0.5},
		{"x IN (1, 2, 3, 4, 5)", 1, 1},
		{"x = 1 AND y IN (1, 2)", 1, 0.25},
		{"x = 1 OR y = 2", 1, 1},
		{"x IN (1) OR x = 2", 1, 0.25 + 0.25 - 0.25*0.25},
		{"NOT (x = 1)", 0, 0.75},
		{"NOT (x IN (1, 2))", 0, 0.5},
		{"x = 1 AND z < 3", 0.33, 0.25 * 0.33},
		{"NOT (x = 1 OR y = 2) AND z <> 3", 0, 0},
	} {
		pred := sqlparser.MustParse("SELECT 1 FROM t WHERE " + c.where).Where
		if got := ast.Selectivity(pred, none); math.Abs(got-c.none) > 1e-12 {
			t.Errorf("%s with no NDV keeps %v, want %v", c.where, got, c.none)
		}
		if got := ast.Selectivity(pred, x4); math.Abs(got-c.x4) > 1e-12 {
			t.Errorf("%s with NDV(x) = 4 keeps %v, want %v", c.where, got, c.x4)
		}
	}
}
