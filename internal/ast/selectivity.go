package ast

import "math"

// Selectivity estimates the fraction of rows a predicate keeps, by the rules
// the planner's cost model and the engine's join order share: AND multiplies,
// OR adds less the overlap, NOT complements; an equality keeps 1/NDV of its
// column side, an IN list one 1/NDV per element, <> keeps 0.9, other
// comparisons 0.33, BETWEEN 0.15, LIKE and IS NULL 0.05, IN (subquery) 0.3,
// EXISTS 0.75 and NOT EXISTS 0.25. ndv gives an expression's distinct-value
// count, 0 where it is unknown: an equality, or an IN element, with no NDV
// on either side keeps every row.
func Selectivity(pred Expr, ndv func(Expr) int64) float64 {
	switch x := pred.(type) {
	case *BinaryExpr:
		switch x.Op {
		case OpAnd:
			return Selectivity(x.Left, ndv) * Selectivity(x.Right, ndv)
		case OpOr:
			a, b := Selectivity(x.Left, ndv), Selectivity(x.Right, ndv)
			return a + b - a*b
		case OpEq:
			d := ndv(x.Left)
			if d <= 0 {
				d = ndv(x.Right)
			}
			if d > 0 {
				return 1 / float64(d)
			}
			return 1
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
				sel++
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
			return 1 - Selectivity(x.E, ndv)
		}
	}
	return 0.33
}

// Sarg is a WHERE conjunct in a shape an index answers (Sargable): an
// equality or IN list, which a hash index answers key by key, or a range,
// which an ordered index answers from its bounds.
type Sarg struct {
	Col *ColumnRef
	Eq  Expr   // `col = c`'s constant
	In  []Expr // `col IN (c, …)`'s constants
	// Lo and Hi are a range's constant bounds, nil where it is open;
	// LoIncl and HiIncl say whether each bound is inclusive.
	Lo, Hi         Expr
	LoIncl, HiIncl bool
}

// Range reports whether the conjunct is a range, which needs an ordered
// index; an equality or IN list needs a hash index.
func (s *Sarg) Range() bool { return s.Lo != nil || s.Hi != nil }

// Sargable is the one rule for which conjuncts an index can answer: `col op
// c` with op one of = < <= > >=, `col BETWEEN c AND c` and `col IN (c, …)`,
// where col is a bare column reference written on the left and each c a
// literal or a parameter. The planner's access-path costing and the engine's
// access path both read it; whether col carries the index is theirs to ask.
func Sargable(e Expr) (Sarg, bool) {
	var s Sarg
	var col Expr
	switch x := e.(type) {
	case *BinaryExpr:
		if !isConst(x.Right) {
			return Sarg{}, false
		}
		switch x.Op {
		case OpEq:
			s.Eq = x.Right
		case OpLt:
			s.Hi = x.Right
		case OpLe:
			s.Hi, s.HiIncl = x.Right, true
		case OpGt:
			s.Lo = x.Right
		case OpGe:
			s.Lo, s.LoIncl = x.Right, true
		default:
			return Sarg{}, false
		}
		col = x.Left
	case *BetweenExpr:
		if x.Not || !isConst(x.Lo) || !isConst(x.Hi) {
			return Sarg{}, false
		}
		s.Lo, s.Hi, s.LoIncl, s.HiIncl = x.Lo, x.Hi, true, true
		col = x.E
	case *InExpr:
		if x.Not || x.Sub != nil {
			return Sarg{}, false
		}
		for _, el := range x.List {
			if !isConst(el) {
				return Sarg{}, false
			}
		}
		s.In = x.List
		col = x.E
	default:
		return Sarg{}, false
	}
	cr, ok := col.(*ColumnRef)
	if !ok || cr.Column == "*" {
		return Sarg{}, false
	}
	s.Col = cr
	return s, true
}

// isConst reports a literal or a parameter.
func isConst(e Expr) bool {
	switch e.(type) {
	case *Literal, *Param:
		return true
	}
	return false
}
