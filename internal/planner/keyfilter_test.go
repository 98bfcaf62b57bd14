package planner

import (
	"strings"
	"testing"

	"repro/internal/enc"
	"repro/internal/sqlparser"
	"repro/internal/value"
)

// fetchPart is a remote part fetching t's columns under DET, named
// t__col in its temp table.
func fetchPart(name, sql string, cols ...string) *RemotePart {
	p := &RemotePart{Name: name, Query: sqlparser.MustParse(sql)}
	for _, c := range cols {
		it := enc.ColumnItem("t", c, enc.DET, value.Int)
		p.Outputs = append(p.Outputs, Output{Name: c, Mode: OutDecrypt, Item: &it, Kind: value.Int})
	}
	return p
}

// filters renders the key filters AttachKeyFilters put on plan's parts.
func filters(plan *Plan) string {
	var out []string
	for _, part := range plan.AllParts() {
		if kf := part.KeyFilter; kf != nil {
			out = append(out, part.Name+"."+kf.Column+"<-"+kf.Source+"."+kf.SourceColumn)
		}
	}
	return strings.Join(out, " ")
}

// TestAttachKeyFiltersShapes pins which residual shapes filter which part,
// over two fetched parts r0(a, b) and r1(c, d).
func TestAttachKeyFiltersShapes(t *testing.T) {
	for _, tc := range []struct{ local, want string }{
		{`SELECT a FROM r0 WHERE a IN (SELECT c FROM r1)`, "r0.a<-r1.c"},
		{`SELECT a FROM r0 WHERE b > 1 AND a IN (SELECT c FROM r1 WHERE d > 2)`, "r0.a<-r1.c"},
		// Correlated equality in the subquery that reads the part: any kind.
		{`SELECT a FROM r0 WHERE b < (SELECT SUM(d) FROM r1 WHERE c = a)`, "r1.c<-r0.a"},
		{`SELECT a FROM r0 WHERE NOT EXISTS (SELECT 1 FROM r1 WHERE a = c AND d > b)`, "r1.c<-r0.a"},
		// An equi-join of two temp tables filters one side, never both.
		{`SELECT a FROM r0, r1 WHERE a = c`, "r0.a<-r1.c"},
		// Not qualifying: anti-joins, a disjunct, a part read twice, a
		// non-column key.
		{`SELECT a FROM r0 WHERE a NOT IN (SELECT c FROM r1)`, ""},
		{`SELECT a FROM r0 WHERE NOT (a IN (SELECT c FROM r1))`, ""},
		{`SELECT a FROM r0 WHERE a IN (SELECT c FROM r1) OR b > 1`, ""},
		{`SELECT a FROM r0 WHERE a IN (SELECT c FROM r1) AND EXISTS (SELECT 1 FROM r0 x WHERE x.b = 1)`, ""},
		{`SELECT a FROM r0 WHERE a + 1 IN (SELECT c FROM r1)`, ""},
		{`SELECT a FROM r0 WHERE a IN (SELECT c + 1 FROM r1)`, ""},
	} {
		plan := &Plan{
			Subplans: []*Subplan{{Name: "r1", Plan: &Plan{Remote: fetchPart("r1", `SELECT t.c_det AS c, t.d_det AS d FROM t`, "c", "d")}}},
			Remote:   fetchPart("r0", `SELECT t.a_det AS a, t.b_det AS b FROM t`, "a", "b"),
			Local:    sqlparser.MustParse(tc.local),
		}
		(&Context{Stats: &Stats{}}).AttachKeyFilters(plan)
		if got := filters(plan); got != tc.want {
			t.Errorf("%s\n got  %q\n want %q", tc.local, got, tc.want)
		}
	}
}

// TestAttachKeyFiltersTargets: only a DET output that is a bare column of an
// unlimited query, and a grouping key when the part groups, is a target.
func TestAttachKeyFiltersTargets(t *testing.T) {
	local := `SELECT a FROM r0 WHERE a IN (SELECT c FROM r1)`
	for _, tc := range []struct {
		r0   *RemotePart
		want string
	}{
		{fetchPart("r0", `SELECT t.a_det AS a FROM t GROUP BY t.a_det`, "a"), "r0.a<-r1.c"},
		{fetchPart("r0", `SELECT t.b_det AS a FROM t GROUP BY t.a_det`, "a"), ""},
		{fetchPart("r0", `SELECT t.a_det AS a FROM t LIMIT 5`, "a"), ""},
		{fetchPart("r0", `SELECT t.a_det + 1 AS a FROM t`, "a"), ""},
		{func() *RemotePart {
			p := fetchPart("r0", `SELECT t.a_ope AS a FROM t`, "a")
			p.Outputs[0].Item.Scheme = enc.OPE
			return p
		}(), ""},
	} {
		plan := &Plan{
			Subplans: []*Subplan{{Name: "r1", Plan: &Plan{Remote: fetchPart("r1", `SELECT t.c_det AS c FROM t`, "c")}}},
			Remote:   tc.r0,
			Local:    sqlparser.MustParse(local),
		}
		(&Context{Stats: &Stats{}}).AttachKeyFilters(plan)
		if got := filters(plan); got != tc.want {
			t.Errorf("%s\n got  %q\n want %q", tc.r0.Query.SQL(), got, tc.want)
		}
	}
}
