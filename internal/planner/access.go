package planner

import (
	"fmt"
	"strings"

	"repro/internal/ast"
)

// Access-path costing. When Context.Indexes is on, the untrusted server
// declares a DET hash index and an OPE ordered index over every encrypted
// column that carries those schemes, built by the first probe that reads
// it (storage.Table.Index), so a RemoteSQL part's scan cost is no
// longer fixed at "read the whole table": a sargable conjunct — `=`/`IN`
// on a `_det` column, `<`/`<=`/`>`/`>=`/`BETWEEN` on an `_ope` column,
// each written `col op const` — can restrict the scan to an estimated
// sel*rows row fetch.
//
// The crossover uses the same random-access penalty as the engine
// (engine.indexRowCost): an index row fetch costs IndexRowCost sequential
// rows, so the index wins iff sel*IndexRowCost < 1. The planner annotates
// the part (RemotePart.Access, which Describe prints) and costs it
// accordingly; the engine chooses its own access path from exact posting
// counts, so a mis-estimate here can cost performance but never
// correctness.

// IndexRowCost is the planner's charged ratio of an index row fetch to a
// sequential scan row, mirroring the engine's cost rule.
const IndexRowCost = 4

// annotateAccess picks the access path for one single-table RemoteSQL part
// and returns the factor to apply to its scan-byte estimate (1 = full
// scan). It records the decision on the part.
func (e *estimator) annotateAccess(part *RemotePart, s *scope, conjuncts []ast.Expr) float64 {
	col, sel, ok := e.bestIndexConjunct(s, conjuncts)
	if !ok || sel*IndexRowCost >= 1 {
		part.Access = "scan"
		return 1
	}
	part.Access = fmt.Sprintf("index(%s) est-sel=%.3g", col, sel)
	return sel * IndexRowCost
}

// bestIndexConjunct returns the most selective index-answerable WHERE
// conjunct: the encrypted column it probes and its estimated selectivity.
func (e *estimator) bestIndexConjunct(s *scope, conjuncts []ast.Expr) (string, float64, bool) {
	bestCol, bestSel, found := "", 0.0, false
	for _, c := range conjuncts {
		col, ok := e.sargableCol(s, c)
		if !ok {
			continue
		}
		sel := e.selectivity(s, c)
		if !found || sel < bestSel {
			bestCol, bestSel, found = col, sel, true
		}
	}
	return bestCol, bestSel, found
}

// sargableCol reports the indexed column a conjunct can probe: `=`/`IN`
// need a DET hash index, ranges an OPE ordered index. A comparison must
// name the column on its left, as the engine's probe requires.
func (e *estimator) sargableCol(s *scope, c ast.Expr) (string, bool) {
	if singleEntry(s, c) == nil {
		return "", false
	}
	switch x := c.(type) {
	case *ast.BinaryExpr:
		var suffix string
		switch x.Op {
		case ast.OpEq:
			suffix = "_det"
		case ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
			suffix = "_ope"
		default:
			return "", false
		}
		if !isConst(x.Right) {
			return "", false
		}
		return encCol(x.Left, suffix)
	case *ast.BetweenExpr:
		if x.Not || !isConst(x.Lo) || !isConst(x.Hi) {
			return "", false
		}
		return encCol(x.E, "_ope")
	case *ast.InExpr:
		if x.Not || x.Sub != nil {
			return "", false
		}
		for _, el := range x.List {
			if !isConst(el) {
				return "", false
			}
		}
		return encCol(x.E, "_det")
	}
	return "", false
}

// encCol extracts a bare encrypted-column reference with the given scheme
// suffix.
func encCol(e ast.Expr, suffix string) (string, bool) {
	cr, ok := e.(*ast.ColumnRef)
	if !ok || !strings.HasSuffix(cr.Column, suffix) {
		return "", false
	}
	return cr.Column, true
}

// isConst reports a literal or parameter operand — the forms the engine's
// own sargable extraction accepts.
func isConst(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Literal, *ast.Param:
		return true
	}
	return false
}
