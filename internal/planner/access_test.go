package planner

import (
	"strings"
	"testing"
)

// TestAccessAnnotationEquality checks that with Context.Indexes on, a
// selective DET equality conjunct is costed as an index probe: the part is
// annotated, and the annotation must not leak into the rendered SQL.
func TestAccessAnnotationEquality(t *testing.T) {
	ctx := testContext(t)
	ctx.Indexes = true
	q := prep(t, `SELECT o_id FROM orders WHERE o_cust = 'ca'`)
	plan, err := ctx.BestPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Remote == nil {
		t.Fatal("no remote part")
	}
	if !strings.HasPrefix(plan.Remote.Access, "index(o_cust_det") {
		t.Errorf("Access = %q, want index(o_cust_det...)", plan.Remote.Access)
	}
	if sql := plan.Remote.Query.SQL(); strings.Contains(sql, "index") || strings.Contains(sql, "hint") {
		t.Errorf("annotation leaked into SQL: %s", sql)
	}
	if !strings.Contains(plan.Describe(), "access index(") {
		t.Errorf("Describe misses access line:\n%s", plan.Describe())
	}
}

// TestAccessAnnotationOff checks the default: with Context.Indexes off, no
// part is annotated, so designer and experiment cost figures are untouched.
func TestAccessAnnotationOff(t *testing.T) {
	ctx := testContext(t)
	q := prep(t, `SELECT o_id FROM orders WHERE o_cust = 'ca'`)
	plan, err := ctx.BestPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Remote.Access != "" {
		t.Errorf("Access = %q, want empty with Indexes off", plan.Remote.Access)
	}
}

// TestAccessScanForUnselective checks the crossover: a bare comparison
// (estimated selectivity 1/3, above the 1/IndexRowCost crossover) is
// costed as a scan.
func TestAccessScanForUnselective(t *testing.T) {
	ctx := testContext(t)
	ctx.Indexes = true
	q := prep(t, `SELECT o_id FROM orders WHERE o_total > 100`)
	plan, err := ctx.BestPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Remote.Access != "scan" {
		t.Errorf("Access = %q, want scan", plan.Remote.Access)
	}
}

// TestAccessAnnotationBetween checks the OPE side: BETWEEN (estimated
// selectivity 0.15) crosses below 1/IndexRowCost and is costed as an
// ordered-index range probe.
func TestAccessAnnotationBetween(t *testing.T) {
	ctx := testContext(t)
	ctx.Indexes = true
	q := prep(t, `SELECT o_id FROM orders WHERE o_total BETWEEN 100 AND 200`)
	plan, err := ctx.BestPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(plan.Remote.Access, "index(o_total_ope") {
		t.Errorf("Access = %q, want index(o_total_ope...)", plan.Remote.Access)
	}
}

// TestAccessLowersServerCost checks the cost model's output moves: the same
// selective query must cost less server time with index costing on.
func TestAccessLowersServerCost(t *testing.T) {
	off := testContext(t)
	q := prep(t, `SELECT o_id FROM orders WHERE o_id = 7`)
	planOff, err := off.BestPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	on := testContext(t)
	on.Indexes = true
	planOn, err := on.BestPlan(prep(t, `SELECT o_id FROM orders WHERE o_id = 7`))
	if err != nil {
		t.Fatal(err)
	}
	if planOn.EstServer >= planOff.EstServer {
		t.Errorf("EstServer with index %g, without %g — index costing did not lower it",
			planOn.EstServer, planOff.EstServer)
	}
}
