// Package planner implements MONOMI's core contribution: split
// client/server execution of analytical queries over encrypted data.
//
// GENERATEQUERYPLAN (Algorithm 1 in the paper) partitions a query into a
// RemoteSQL part that the untrusted server can evaluate over ciphertexts
// with the available encryption schemes, plus local operators (decrypt,
// filter, group, sort) on the trusted client. The planner enumerates the
// power set of the query's encryption units (§6.3 pruning), costs each
// resulting plan with the §6.4 model (server I/O + network transfer +
// client decryption), and picks the cheapest — which is also the inner loop
// of the physical designer (§6.2).
package planner

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/enc"
)

// Top-level planning: enumerate candidate unit subsets (§6.3 pruning keeps
// this tractable — the paper reports ~30 candidates per query), generate a
// plan for each with Algorithm 1, cost them with §6.4, and keep the best.

// Candidate is one costed plan alternative.
type Candidate struct {
	Plan     *Plan
	Units    []Unit // units enabled for this plan
	UnitMask uint64
}

// choiceUnit reports whether a unit represents a genuine runtime choice
// (aggregation strategy, pre-filtering) rather than a filter that is always
// worth pushing when available.
func choiceUnit(u *Unit) bool {
	switch {
	case u.ID == "agg:hom", u.ID == "agg:ope", u.ID == "agg:det",
		u.ID == "prefilter", u.ID == "groupby":
		return true
	case strings.HasSuffix(u.ID, "/sub:hom"), strings.HasSuffix(u.ID, "/sub:prefilter"):
		return true
	}
	return false
}

// unitAvailable reports whether every item of the unit exists in the design.
func unitAvailable(d *enc.Design, u *Unit) bool {
	for _, it := range u.Items {
		if !d.Contains(it) {
			return false
		}
	}
	return true
}

// hideable reports whether disabling a unit may remove this item from the
// trial design. Base-column DET/RND items are never hidden: they are the
// fetch baseline, cost no extra space, and disabling a filter unit must
// only disable the predicate pushdown, not the column's existence.
func hideable(it *enc.Item) bool {
	if it.IsPrecomputed() {
		return true
	}
	return it.Scheme != enc.DET && it.Scheme != enc.RND
}

// hiddenItems is the set of hideable item keys a unit-enabling assignment
// removes: those claimed by a disabled unit and by no enabled one.
func hiddenItems(units []Unit, enabled func(int) bool) map[string]bool {
	hidden := make(map[string]bool)
	for i := range units {
		if !enabled(i) {
			for j := range units[i].Items {
				if hideable(&units[i].Items[j]) {
					hidden[units[i].Items[j].Key()] = true
				}
			}
		}
	}
	for i := range units {
		if enabled(i) {
			for j := range units[i].Items {
				delete(hidden, units[i].Items[j].Key())
			}
		}
	}
	return hidden
}

// hiddenSignature canonically names a hidden-item set, so assignments that
// hide the same items plan only once.
func hiddenSignature(hidden map[string]bool) string {
	keys := make([]string, 0, len(hidden))
	for k := range hidden {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// trialDesign is d without the hidden items.
func trialDesign(d *enc.Design, hidden map[string]bool) *enc.Design {
	trial := &enc.Design{
		GroupedAddition: d.GroupedAddition,
		MultiRowPacking: d.MultiRowPacking,
	}
	for _, it := range d.Items {
		if !hidden[it.Key()] {
			trial.Items = append(trial.Items, it)
		}
	}
	return trial
}

// BestPlan plans a prepared query against the context's design: filter
// units are pushed whenever available; choice units are enumerated.
func (ctx *Context) BestPlan(q *ast.Query) (*Plan, error) {
	units, err := ctx.ExtractUnits(q)
	if err != nil {
		return nil, err
	}
	// Only units whose items the design actually has participate.
	avail := make([]bool, len(units))
	var choices []int
	for i := range units {
		avail[i] = unitAvailable(ctx.Design, &units[i])
		if avail[i] && choiceUnit(&units[i]) {
			choices = append(choices, i)
		}
	}
	if len(choices) > 8 {
		choices = choices[:8]
	}

	var best *Plan
	bestCost := math.Inf(1)
	seen := make(map[string]bool)
	for mask := 0; mask < 1<<len(choices); mask++ {
		enabled := func(i int) bool {
			if !avail[i] {
				return false
			}
			for bi, ui := range choices {
				if ui == i {
					return mask&(1<<bi) != 0
				}
			}
			return true
		}
		// Distinct masks can induce the same trial design (units whose
		// items are all non-hideable); plan each design once.
		hidden := hiddenItems(units, enabled)
		sig := hiddenSignature(hidden)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		plan, err := ctx.planWith(q, hidden)
		if err != nil {
			continue
		}
		if c := plan.EstTotal(); c < bestCost {
			bestCost = c
			best = plan
		}
	}
	if best == nil {
		return nil, fmt.Errorf("planner: no feasible plan (is the baseline DET design present?)")
	}
	return best, nil
}

// ClientPlan is the plan the client runs for a prepared statement: under
// Execution-Greedy (§8.3, greedy) Generate's, costed, else BestPlan's with
// its key filters attached. The set-up phase plans the workload with it too,
// to learn which encrypted columns the server will read.
func (ctx *Context) ClientPlan(prepared *ast.Query, greedy bool) (*Plan, error) {
	if greedy {
		plan, err := ctx.Generate(prepared)
		if err != nil {
			return nil, err
		}
		ctx.CostPlan(plan)
		return plan, nil
	}
	plan, err := ctx.BestPlan(prepared)
	if err != nil {
		return nil, err
	}
	ctx.AttachKeyFilters(plan)
	return plan, nil
}

// planWith generates and costs one plan over the design minus hidden.
func (ctx *Context) planWith(q *ast.Query, hidden map[string]bool) (*Plan, error) {
	tctx := ctx.WithDesign(trialDesign(ctx.Design, hidden))
	plan, err := tctx.Generate(q)
	if err != nil {
		return nil, err
	}
	tctx.costPlan(plan)
	return plan, nil
}

// Candidates enumerates the designer's per-query plan alternatives
// (PowSet_i with the §6.3 pruning): the power set of choice units crossed
// with filter-unit drop patterns (all on, each off, all off).
func (ctx *Context) Candidates(q *ast.Query, units []Unit) []Candidate {
	var choices, filters []int
	for i := range units {
		if choiceUnit(&units[i]) {
			choices = append(choices, i)
		} else {
			filters = append(filters, i)
		}
	}
	if len(choices) > 8 {
		choices = choices[:8]
	}

	// Filter patterns: all-on, each-one-off, all-off.
	patterns := [][]bool{allPattern(len(filters), true)}
	for i := range filters {
		p := allPattern(len(filters), true)
		p[i] = false
		patterns = append(patterns, p)
	}
	if len(filters) > 0 {
		patterns = append(patterns, allPattern(len(filters), false))
	}

	var out []Candidate
	seen := make(map[string]bool)
	for mask := 0; mask < 1<<len(choices); mask++ {
		for _, fp := range patterns {
			var full uint64
			enabled := func(i int) bool {
				for bi, ci := range choices {
					if ci == i {
						return mask&(1<<bi) != 0
					}
				}
				for fi, fj := range filters {
					if fj == i {
						return fp[fi]
					}
				}
				return false
			}
			for i := range units {
				if enabled(i) {
					full |= 1 << uint(i)
				}
			}
			hidden := hiddenItems(units, enabled)
			sig := hiddenSignature(hidden)
			if seen[sig] {
				continue
			}
			seen[sig] = true
			plan, err := ctx.planWith(q, hidden)
			if err != nil {
				continue
			}
			var en []Unit
			for i := range units {
				if enabled(i) {
					en = append(en, units[i])
				}
			}
			out = append(out, Candidate{Plan: plan, Units: en, UnitMask: full})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Plan.EstTotal() < out[j].Plan.EstTotal() })
	return out
}

func allPattern(n int, v bool) []bool {
	p := make([]bool, n)
	for i := range p {
		p[i] = v
	}
	return p
}

// CostPlan fills the plan's §6.4 estimates, including subplans.
func (ctx *Context) CostPlan(p *Plan) { ctx.costPlan(p) }

// costPlan fills the plan's §6.4 estimates, including subplans.
func (ctx *Context) costPlan(p *Plan) {
	est := &estimator{ctx: ctx}
	p.EstServer, p.EstTransfer, p.EstClient = 0, 0, 0
	for _, sp := range p.Subplans {
		ctx.costPlan(sp.Plan)
		p.EstServer += sp.Plan.EstServer
		p.EstTransfer += sp.Plan.EstTransfer
		p.EstClient += sp.Plan.EstClient
	}
	if p.Remote != nil {
		server, transfer, client := est.costPart(p.Remote, p.Prefilter)
		p.EstServer += server
		p.EstTransfer += transfer
		p.EstClient += client
	}
}

// costPart estimates one RemoteSQL part.
func (e *estimator) costPart(part *RemotePart, prefilter bool) (server, transfer, client float64) {
	ctx := e.ctx
	q := part.Query
	s, err := ctx.newScope(q, nil)
	if err != nil {
		return 0, 0, 0
	}
	s.Cat = encTables{ctx.Cat}
	conjuncts := ast.Conjuncts(q.Where)
	inputRows := e.joinEstimate(s, q.From, conjuncts)
	coverage := 1.0
	for _, c := range conjuncts {
		if entry := singleEntry(s, c); entry != nil {
			coverage *= e.selectivity(s, c)
		}
	}

	var scanBytes float64
	for _, f := range q.From {
		scanBytes += e.encTableBytes(f.Name)
	}
	if ctx.Indexes && len(q.From) == 1 {
		// Index-vs-scan: a sargable conjunct can shrink the scan to an
		// index fetch of the estimated matching rows (access.go).
		scanBytes *= e.annotateAccess(part, s, conjuncts)
	}
	server = scanBytes/e.ctx.Cost.Cfg.DiskBytesPerSec +
		inputRows*e.ctx.Cost.Cfg.ServerRowNanos/1e9

	if len(q.GroupBy) > 0 {
		groups := 1.0
		for _, k := range q.GroupBy {
			if ndv := e.exprNDV(s, k); ndv > 0 {
				groups *= float64(ndv)
			} else {
				groups *= 50
			}
		}
		groups = math.Min(groups, math.Max(1, inputRows/2))
		rowsPerGroup := math.Max(1, inputRows/groups)
		for i := range part.Outputs {
			o := &part.Outputs[i]
			switch o.Mode {
			case OutHomSum:
				rpc := e.homRowsPerCipher(o.HomTable)
				packs := math.Ceil(rowsPerGroup / rpc)
				partials := packs
				if coverage >= 0.95 {
					partials = math.Min(packs, 2)
				}
				cb := float64(ctx.Cost.HomCipherBytes)
				transfer += groups * (cb + partials*(cb+8) + 6)
				client += groups * (1 + partials) * ctx.Cost.HomDec
				server += inputRows / rpc * ctx.Cost.HomMul
				// Pack reads from the ciphertext file.
				server += inputRows / rpc * cb / ctx.Cost.Cfg.DiskBytesPerSec
			case OutConcatAgg:
				w := ctx.valueWidth(&Output{Mode: OutDecrypt, Item: o.Item})
				transfer += inputRows * (w + 6)
				client += inputRows * ctx.Cost.decCost(o)
			default:
				transfer += groups * ctx.valueWidth(o)
				client += groups * ctx.Cost.decCost(o)
			}
		}
		if prefilter && q.Having != nil {
			// The conservative filter drops most non-qualifying groups
			// before transfer/decryption.
			transfer *= 0.2
			client *= 0.2
		}
		part.EstRows = groups
	} else {
		var width, dec float64
		for i := range part.Outputs {
			width += ctx.valueWidth(&part.Outputs[i])
			dec += ctx.Cost.decCost(&part.Outputs[i])
		}
		transfer += inputRows * (width + 4)
		client += inputRows * dec
		part.EstRows = inputRows
	}
	part.EstBytes = transfer
	transfer = transfer * 8 * ctx.Cost.Cfg.CompressionRatio / ctx.Cost.Cfg.NetBitsPerSec
	return server, transfer, client
}

// homRowsPerCipher estimates rows per Paillier ciphertext for a table.
func (e *estimator) homRowsPerCipher(table string) float64 {
	if !e.ctx.Design.MultiRowPacking {
		return 1
	}
	k := 0
	for _, it := range e.ctx.Design.TableItems(table) {
		if it.Scheme == enc.HOM {
			k++
		}
	}
	if k == 0 {
		k = 1
	}
	plainBits := float64(e.ctx.Cost.HomCipherBytes) * 8 / 2
	rowBits := float64(k) * 45 // ~24 value bits + ~21 padding per field
	return math.Max(1, math.Floor(plainBits/rowBits))
}
