package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/enc"
)

// Table 3: the security census — for each TPC-H table, how many distinct
// columns end up at each weakest scheme (OPE reveals order; DET reveals
// duplicates; RND/HOM/SEARCH reveal nothing beyond size/matching). Numbers
// after a plus sign are encryptions of precomputed expressions, as in the
// paper.
//
// Result transfer adds no row to the census. The server dictionary-codes
// each column of a result frame (internal/wire), and a frame's dictionary
// reveals only which of its cells are equal — among ciphertexts the server
// already holds. A DET or OPE column's repeats are already visible to it,
// and RND and HOM ciphertexts never repeat, so those columns ship plain.

// Table3Row is one table's census.
type Table3Row struct {
	Table       string
	BaseCols    int // distinct base columns encrypted
	PrecompCols int // distinct precomputed expressions
	// Counts by weakest scheme: [strong (RND/HOM/SEARCH), DET, OPE],
	// split base/precomputed.
	Strong, StrongPre int
	Det, DetPre       int
	Ope, OpePre       int
}

// Table3 computes the census from a design.
func Table3(design *enc.Design) []Table3Row {
	type colInfo struct {
		weakest enc.Scheme
		precomp bool
	}
	perTable := make(map[string]map[string]*colInfo)
	rank := func(s enc.Scheme) int {
		switch s {
		case enc.OPE:
			return 2
		case enc.DET:
			return 1
		default:
			return 0 // RND, HOM, SEARCH
		}
	}
	for _, it := range design.Items {
		cols := perTable[it.Table]
		if cols == nil {
			cols = make(map[string]*colInfo)
			perTable[it.Table] = cols
		}
		key := it.ExprSQL()
		ci := cols[key]
		if ci == nil {
			ci = &colInfo{weakest: it.Scheme, precomp: it.IsPrecomputed()}
			cols[key] = ci
		}
		if rank(it.Scheme) > rank(ci.weakest) {
			ci.weakest = it.Scheme
		}
	}
	var tables []string
	for t := range perTable {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	var rows []Table3Row
	for _, t := range tables {
		row := Table3Row{Table: t}
		for _, ci := range perTable[t] {
			bump := func(base, pre *int) {
				if ci.precomp {
					*pre++
				} else {
					*base++
				}
			}
			if ci.precomp {
				row.PrecompCols++
			} else {
				row.BaseCols++
			}
			switch rank(ci.weakest) {
			case 2:
				bump(&row.Ope, &row.OpePre)
			case 1:
				bump(&row.Det, &row.DetPre)
			default:
				bump(&row.Strong, &row.StrongPre)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTable3 renders the census in the paper's layout.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: columns by weakest encryption scheme\n")
	fmt.Fprintf(&b, "%-10s %10s %18s %8s %8s\n", "table", "total", "RND/HOM/SEARCH", "DET", "OPE")
	pm := func(base, pre int) string {
		if pre > 0 {
			return fmt.Sprintf("%d+%d", base, pre)
		}
		return fmt.Sprintf("%d", base)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10s %18s %8s %8s\n", r.Table,
			pm(r.BaseCols, r.PrecompCols),
			pm(r.Strong, r.StrongPre), pm(r.Det, r.DetPre), pm(r.Ope, r.OpePre))
	}
	return b.String()
}

// SecuritySummary asserts the paper's qualitative claims: no plaintext on
// the server, OPE used sparingly. It returns a human-readable report and
// the OPE column count.
func SecuritySummary(rows []Table3Row) (string, int) {
	totalCols, opeCols := 0, 0
	for _, r := range rows {
		totalCols += r.BaseCols + r.PrecompCols
		opeCols += r.Ope + r.OpePre
	}
	return fmt.Sprintf("All %d columns encrypted; OPE (weakest) on %d (%.0f%%)",
		totalCols, opeCols, 100*float64(opeCols)/float64(totalCols)), opeCols
}
