package planner

// Plan templates back the client's repeated-query fast path. MONOMI's
// designer/planner split makes the plan for a query *shape* deterministic
// given the design, so two executions of the same shape differ only in the
// constants they bind. A Template captures that: the generated plan tree
// with every parameter-derived literal lifted back out into a named
// parameter, plus the rebind sites saying how each future value re-enters
// the plan (encrypted under a specific item for RemoteSQL, plaintext for
// the local residual). Executing a cached shape is then Rebind + run; no
// parsing, no rewriting, no costing.
//
// Soundness rests on provenance tags: Context.Prepare stamps every bound
// literal occurrence with a unique Literal.Src, the rewriter propagates the
// tag through encryption (encConst), and Parameterize refuses to build a
// template unless every occurrence survives planning as a rebindable site.
// Passes that absorb a constant irrecoverably — constant folding, design
// expression matching, HOM packing placeholders, the §5.4 pre-filter's
// derived threshold (Plan.NoCache) — therefore make the shape uncacheable
// rather than silently wrong.

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/enc"
	"repro/internal/value"
)

// EncSite is one rebindable encrypted-constant site in a template's remote
// queries: each execution encrypts the source parameter's value under Item
// and binds it to Param. Encryption is deterministic for the DET/OPE
// constants the rewriter plants, so a rebound query is byte-identical to a
// from-scratch plan of the same values.
type EncSite struct {
	Tag      string    // provenance tag of the bound occurrence
	SrcParam string    // caller-visible parameter name
	Param    string    // parameter slot in the templated query (":cpN")
	Item     *enc.Item // key item the constant encrypts under
}

// LocalSite is one rebindable plaintext-constant site in a template's local
// (client-side residual) queries.
type LocalSite struct {
	Tag      string
	SrcParam string
	Param    string // ":lpN"
}

// Template is a reusable plan for a query shape.
type Template struct {
	Plan  *Plan
	Enc   []EncSite
	Local []LocalSite
}

// Parameterize converts a freshly generated plan into a template. It deep-
// clones the plan tree, replaces every provenance-tagged literal with a
// parameter node, and checks coverage: every slot Context.Prepare bound must
// reappear at one or more sites. Returns ok=false when the shape is not
// soundly templatable; the caller then runs (and caches nothing for) the
// concrete plan.
func Parameterize(plan *Plan, slots []BoundSlot) (*Template, bool) {
	if plan == nil || plan.NoCache {
		return nil, false
	}
	srcOf := make(map[string]string, len(slots))
	for _, s := range slots {
		srcOf[s.Tag] = s.Param
	}
	t := &Template{Plan: clonePlan(plan)}
	if !t.parameterizePlan(t.Plan, srcOf) {
		return nil, false
	}
	covered := make(map[string]bool, len(t.Enc)+len(t.Local))
	for _, s := range t.Enc {
		covered[s.Tag] = true
	}
	for _, s := range t.Local {
		covered[s.Tag] = true
	}
	for _, s := range slots {
		if !covered[s.Tag] {
			return nil, false
		}
	}
	return t, true
}

func (t *Template) parameterizePlan(p *Plan, srcOf map[string]string) bool {
	ok := true
	for _, sp := range p.Subplans {
		if !t.parameterizePlan(sp.Plan, srcOf) {
			ok = false
		}
	}
	if p.Remote != nil {
		t.liftQuery(p.Remote.Query, true, srcOf, &ok)
	}
	if p.Local != nil {
		t.liftQuery(p.Local, false, srcOf, &ok)
	}
	return ok
}

// liftQuery replaces tagged literals with parameter nodes, recording a
// rebind site per occurrence, in every block of q (the template's own
// clone). In remote queries the literal must carry its encrypting item (a
// tagged plaintext constant in RemoteSQL has no sound rebind story); in
// local queries it must not.
func (t *Template) liftQuery(q *ast.Query, remote bool, srcOf map[string]string, ok *bool) {
	ast.RewriteStatement(q, func(x ast.Expr) ast.Expr {
		lit, isLit := x.(*ast.Literal)
		if !isLit || lit.Src == "" {
			return nil
		}
		src, known := srcOf[lit.Src]
		if !known {
			*ok = false
			return nil
		}
		if remote {
			it, _ := lit.EncBy.(*enc.Item)
			if it == nil {
				*ok = false
				return nil
			}
			name := fmt.Sprintf("cp%d", len(t.Enc))
			t.Enc = append(t.Enc, EncSite{Tag: lit.Src, SrcParam: src, Param: name, Item: it})
			return &ast.Param{Name: name}
		}
		if lit.EncBy != nil {
			*ok = false
			return nil
		}
		name := fmt.Sprintf("lp%d", len(t.Local))
		t.Local = append(t.Local, LocalSite{Tag: lit.Src, SrcParam: src, Param: name})
		return &ast.Param{Name: name}
	})
}

// Rebind computes one execution's parameter bindings: encp binds every
// remote (":cpN") slot to its freshly encrypted value, localp every local
// (":lpN") slot to the plaintext. vals is keyed by caller-visible parameter
// name; a missing or unencryptable value fails the rebind (the caller falls
// back to a full plan).
func (t *Template) Rebind(keys *enc.KeyStore, vals map[string]value.Value) (encp, localp map[string]value.Value, err error) {
	encp = make(map[string]value.Value, len(t.Enc))
	for _, s := range t.Enc {
		v, ok := vals[s.SrcParam]
		if !ok {
			return nil, nil, fmt.Errorf("planner: template missing parameter :%s", s.SrcParam)
		}
		cv, err := keys.EncryptValue(s.Item, v)
		if err != nil {
			return nil, nil, fmt.Errorf("planner: template rebind :%s: %w", s.SrcParam, err)
		}
		encp[s.Param] = cv
	}
	localp = make(map[string]value.Value, len(t.Local))
	for _, s := range t.Local {
		v, ok := vals[s.SrcParam]
		if !ok {
			return nil, nil, fmt.Errorf("planner: template missing parameter :%s", s.SrcParam)
		}
		localp[s.Param] = v
	}
	return encp, localp, nil
}

// clonePlan deep-clones the plan tree's queries (templates must not alias
// the caller's plan, and cached plans are shared across goroutines).
func clonePlan(p *Plan) *Plan {
	if p == nil {
		return nil
	}
	c := *p
	c.Subplans = make([]*Subplan, len(p.Subplans))
	for i, sp := range p.Subplans {
		c.Subplans[i] = &Subplan{Name: sp.Name, Plan: clonePlan(sp.Plan)}
	}
	if p.Remote != nil {
		r := *p.Remote
		r.Query = p.Remote.Query.Clone()
		r.Outputs = append([]Output(nil), p.Remote.Outputs...)
		c.Remote = &r
	}
	if p.Local != nil {
		c.Local = p.Local.Clone()
	}
	c.UsedItems = append([]enc.Item(nil), p.UsedItems...)
	return &c
}
