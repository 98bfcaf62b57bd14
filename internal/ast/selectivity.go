package ast

import "math"

// Selectivity estimates the fraction of rows a predicate keeps, by the rules
// the planner's cost model and the engine's join order share: AND multiplies,
// OR adds less the overlap, NOT complements; an equality keeps 1/NDV of its
// column side, an IN list one 1/NDV per element, <> keeps 0.9, other
// comparisons 0.33, BETWEEN 0.15, LIKE and IS NULL 0.05, IN (subquery) 0.3,
// EXISTS 0.75 and NOT EXISTS 0.25. ndv gives an expression's distinct-value
// count, 0 where it is unknown; unknown is what an equality, or an IN
// element, keeps then.
func Selectivity(pred Expr, ndv func(Expr) int64, unknown float64) float64 {
	switch x := pred.(type) {
	case *BinaryExpr:
		switch x.Op {
		case OpAnd:
			return Selectivity(x.Left, ndv, unknown) * Selectivity(x.Right, ndv, unknown)
		case OpOr:
			a, b := Selectivity(x.Left, ndv, unknown), Selectivity(x.Right, ndv, unknown)
			return a + b - a*b
		case OpEq:
			d := ndv(x.Left)
			if d <= 0 {
				d = ndv(x.Right)
			}
			if d > 0 {
				return 1 / float64(d)
			}
			return unknown
		case OpNe:
			return 0.9
		default:
			return 0.33
		}
	case *BetweenExpr:
		return 0.15
	case *InExpr:
		if x.Sub != nil {
			return 0.3
		}
		sel := 0.0
		for range x.List {
			if d := ndv(x.E); d > 0 {
				sel += 1 / float64(d)
			} else {
				sel += unknown
			}
		}
		return math.Min(sel, 1)
	case *LikeExpr:
		return 0.05
	case *IsNullExpr:
		return 0.05
	case *ExistsExpr:
		if x.Not {
			return 0.25
		}
		return 0.75
	case *UnaryExpr:
		if !x.Neg {
			return 1 - Selectivity(x.E, ndv, unknown)
		}
	}
	return 0.33
}
