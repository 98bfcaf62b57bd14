package planner

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/storage"
)

// Access-path costing. When Context.Indexes is on, the untrusted server
// declares a DET hash index and an OPE ordered index over every encrypted
// column that carries those schemes (enc.IndexKindOf), so a RemoteSQL part's
// scan cost is no longer fixed at "read the whole table": a conjunct
// ast.Sargable accepts — `=`/`IN` on a `_det` column, `<`/`<=`/`>`/`>=`/
// `BETWEEN` on an `_ope` column — can restrict the scan to an estimated
// sel*rows row fetch.
//
// The crossover is the engine's: an index row fetch costs
// storage.IndexRowCost sequential rows, so the index wins iff
// sel*IndexRowCost < 1. The planner annotates the part (RemotePart.Access,
// which Describe prints) and costs it accordingly; the engine chooses its
// own access path from exact posting counts, so a mis-estimate here can cost
// performance but never correctness.

// annotateAccess picks the access path for one single-table RemoteSQL part
// and returns the factor to apply to its scan-byte estimate (1 = full
// scan). It records the decision on the part.
func (e *estimator) annotateAccess(part *RemotePart, s *scope, conjuncts []ast.Expr) float64 {
	col, sel, ok := e.bestIndexConjunct(s, conjuncts)
	if !ok || sel*storage.IndexRowCost >= 1 {
		part.Access = "scan"
		return 1
	}
	part.Access = fmt.Sprintf("index(%s) est-sel=%.3g", col, sel)
	return sel * storage.IndexRowCost
}

// bestIndexConjunct returns the most selective index-answerable WHERE
// conjunct: the encrypted column it probes and its estimated selectivity.
// A conjunct is index-answerable when it is sargable, reads one table, and
// its column carries the index it needs: `_det` for an equality or IN list,
// `_ope` for a range.
func (e *estimator) bestIndexConjunct(s *scope, conjuncts []ast.Expr) (string, float64, bool) {
	bestCol, bestSel, found := "", 0.0, false
	for _, c := range conjuncts {
		sg, ok := ast.Sargable(c)
		suffix := "_det"
		if sg.Range() {
			suffix = "_ope"
		}
		if !ok || singleEntry(s, c) == nil || !strings.HasSuffix(sg.Col.Column, suffix) {
			continue
		}
		sel := e.selectivity(s, c)
		if !found || sel < bestSel {
			bestCol, bestSel, found = sg.Col.Column, sel, true
		}
	}
	return bestCol, bestSel, found
}
