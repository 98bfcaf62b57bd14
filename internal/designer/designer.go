// Package designer implements MONOMI's physical database designer (§6):
// given a representative query workload and data statistics, it chooses the
// set of encrypted ⟨value, scheme⟩ columns to materialize on the untrusted
// server — unconstrained (union of each query's best plan's items, §6.2) or
// under a server space budget S via the ILP formulation (§6.5), with the
// paper's Space-Greedy heuristic as a baseline (§8.6).
package designer

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/ast"
	"repro/internal/enc"
	"repro/internal/ilp"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Options configures a designer run.
type Options struct {
	// SpaceBudget is the paper's S factor (total encrypted size ≤ S ×
	// plaintext size); 0 disables the constraint.
	SpaceBudget float64
	// SpaceGreedy replaces the ILP with the §8.6 baseline: start from the
	// unconstrained design and delete the largest column until it fits.
	SpaceGreedy bool
	// NoPrecomputation restricts the design to encryptions of base columns
	// (the CryptDB+Client configuration: no §5.1 precomputed expressions).
	NoPrecomputation bool
	// GroupedAddition and MultiRowPacking select the §5.2/§5.3 Paillier
	// layout. CryptDB+Client disables both (2,048-bit ciphertext per value).
	GroupedAddition bool
	MultiRowPacking bool
	// AllItems skips plan-driven selection and materializes every
	// candidate item (the Execution-Greedy configuration of §8.3).
	AllItems bool
	// OnionBaseline stores every column under RND + DET (+OPE for ordered
	// types), CryptDB's onion model. The default (false) is MONOMI's
	// security-conscious baseline: RND everywhere, with weaker schemes
	// materialized only where a query needs them — which is what makes the
	// paper's Table 3 census mostly RND/HOM/SEARCH.
	OnionBaseline bool
}

// MonomiOptions are the full-featured defaults the paper's MONOMI bars use.
func MonomiOptions() Options {
	return Options{GroupedAddition: true, MultiRowPacking: true}
}

// QueryPlanInfo records the designer's per-query decision.
type QueryPlanInfo struct {
	Label    string
	EstCost  float64 // seconds, §6.4 model
	NumCands int
	Items    []enc.Item // BestSet_i
}

// Result is a completed design.
type Result struct {
	Design  *enc.Design
	Context *planner.Context // planning context bound to the final design

	PerQuery []QueryPlanInfo

	// ILP statistics (§8.1 reports 713 variables / 612 constraints).
	Vars, Constraints, Nodes int

	PlainBytes    float64
	BaselineBytes float64
	EstBytes      float64 // estimated encrypted footprint of the design
	Elapsed       time.Duration
}

// Workload is a set of labeled queries (parameters already bound).
type Workload struct {
	Labels  []string
	Queries []*ast.Query
}

// ParseWorkload builds a workload from SQL texts.
func ParseWorkload(labeled map[string]string) (*Workload, error) {
	w := &Workload{}
	labels := make([]string, 0, len(labeled))
	for l := range labeled {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		q, err := sqlparser.Parse(labeled[l])
		if err != nil {
			return nil, fmt.Errorf("designer: query %s: %w", l, err)
		}
		w.Labels = append(w.Labels, l)
		w.Queries = append(w.Queries, q)
	}
	return w, nil
}

// Run executes the designer over a plaintext catalog and workload.
func Run(cat *storage.Catalog, w *Workload, ks *enc.KeyStore, cost *planner.CostModel, opts Options) (*Result, error) {
	start := time.Now()
	base := planner.NewContext(cat, &enc.Design{}, ks, cost)

	// Prepare queries and infer join groups from their equi-joins.
	prepared := make([]*ast.Query, len(w.Queries))
	for i, q := range w.Queries {
		p, _, err := base.Prepare(q, nil)
		if err != nil {
			return nil, fmt.Errorf("designer: prepare %s: %w", w.Labels[i], err)
		}
		prepared[i] = p
	}
	base.JoinGroups = planner.BuildJoinGroups(base, prepared)

	// Baseline: every column gets a decryptable encryption so any residual
	// can fetch it — RND by default (no leakage), or CryptDB onions.
	baseline := BaselineDesign(cat, base.JoinGroups, opts.OnionBaseline)

	// Candidate items from every query's units.
	full := &enc.Design{
		GroupedAddition: opts.GroupedAddition,
		MultiRowPacking: opts.MultiRowPacking,
	}
	full.Merge(baseline)
	unitsPer := make([][]planner.Unit, len(prepared))
	for i, q := range prepared {
		units, err := base.ExtractUnits(q)
		if err != nil {
			return nil, fmt.Errorf("designer: units %s: %w", w.Labels[i], err)
		}
		if opts.NoPrecomputation {
			units = filterPrecomputed(units)
		}
		unitsPer[i] = units
		for _, u := range units {
			for _, it := range u.Items {
				full.Add(it)
			}
		}
	}

	res := &Result{PlainBytes: float64(cat.TotalBytes())}
	ctxFull := base.WithDesign(full)
	res.BaselineBytes = designBytes(base.WithDesign(withFlags(baseline, opts)), cat)

	if opts.AllItems {
		design := full
		if !opts.OnionBaseline {
			used := make(map[string]bool)
			ctxAll := base.WithDesign(full)
			for _, q := range prepared {
				if plan, err := ctxAll.Generate(q); err == nil {
					for _, it := range plan.UsedItems {
						used[it.Key()] = true
					}
				}
			}
			design = downgradeUnusedDET(design, used, ctxAll, math.Inf(1))
		}
		res.Design = design
		res.Context = base.WithDesign(design)
		res.EstBytes = designBytes(res.Context, cat)
		res.Elapsed = time.Since(start)
		return res, nil
	}

	// Per-query candidates against the full design.
	type candSet struct {
		cands []planner.Candidate
	}
	candsPer := make([]candSet, len(prepared))
	for i, q := range prepared {
		cands := ctxFull.Candidates(q, unitsPer[i])
		if len(cands) == 0 {
			return nil, fmt.Errorf("designer: no feasible candidate for %s", w.Labels[i])
		}
		candsPer[i] = candSet{cands: cands}
	}

	// Global index of non-baseline items.
	itemIdx := make(map[string]int)
	var items []enc.Item
	indexOf := func(it enc.Item) int {
		k := it.Key()
		if idx, ok := itemIdx[k]; ok {
			return idx
		}
		itemIdx[k] = len(items)
		items = append(items, it)
		return len(items) - 1
	}
	baselineKeys := make(map[string]bool)
	for _, it := range baseline.Items {
		baselineKeys[it.Key()] = true
	}

	prob := &ilp.Problem{}
	for i := range prepared {
		var cands []ilp.Candidate
		for _, c := range candsPer[i].cands {
			var need []int
			seen := map[int]bool{}
			for _, u := range c.Units {
				for _, it := range u.Items {
					if baselineKeys[it.Key()] {
						continue
					}
					idx := indexOf(it)
					if !seen[idx] {
						seen[idx] = true
						need = append(need, idx)
					}
				}
			}
			cands = append(cands, ilp.Candidate{Cost: c.Plan.EstTotal(), Items: need})
		}
		prob.Candidates = append(prob.Candidates, cands)
	}
	prob.Sizes = make([]float64, len(items))
	for k := range items {
		prob.Sizes[k] = itemBytes(ctxFull, &items[k], opts)
	}

	chosen := make([]int, len(prepared))
	switch {
	case opts.SpaceBudget <= 0:
		// Unconstrained §6.2: each query's cheapest candidate.
		for i := range prob.Candidates {
			bestJ, bestC := 0, math.Inf(1)
			for j, c := range prob.Candidates[i] {
				if c.Cost < bestC {
					bestC = c.Cost
					bestJ = j
				}
			}
			chosen[i] = bestJ
		}
	case opts.SpaceGreedy:
		chosen = spaceGreedy(prob, res.PlainBytes*opts.SpaceBudget-res.BaselineBytes)
	default:
		prob.Budget = res.PlainBytes*opts.SpaceBudget - res.BaselineBytes
		sol, ok := ilp.Solve(prob)
		if !ok {
			return nil, fmt.Errorf("designer: space budget S=%.2f infeasible", opts.SpaceBudget)
		}
		chosen = sol.Choice
		res.Nodes = sol.Nodes
	}
	res.Vars = prob.Vars()
	res.Constraints = prob.Constraints()

	// Final design: baseline plus items of the chosen candidates.
	design := withFlags(baseline, opts)
	for i, j := range chosen {
		for _, k := range prob.Candidates[i][j].Items {
			design.Add(items[k])
		}
		info := QueryPlanInfo{
			Label:    w.Labels[i],
			EstCost:  prob.Candidates[i][j].Cost,
			NumCands: len(prob.Candidates[i]),
		}
		for _, k := range prob.Candidates[i][j].Items {
			info.Items = append(info.Items, items[k])
		}
		res.PerQuery = append(res.PerQuery, info)
	}
	if !opts.OnionBaseline {
		used := make(map[string]bool)
		for i, j := range chosen {
			for _, c := range candsPer[i].cands[j : j+1] {
				for _, it := range c.Plan.UsedItems {
					used[it.Key()] = true
				}
			}
		}
		spare := math.Inf(1)
		if opts.SpaceBudget > 0 {
			spare = opts.SpaceBudget*res.PlainBytes - designBytes(base.WithDesign(design), cat)
		}
		design = downgradeUnusedDET(design, used, ctxFull, spare)
	}
	res.Design = design
	res.Context = base.WithDesign(design)
	res.EstBytes = designBytes(res.Context, cat)
	res.Elapsed = time.Since(start)
	return res, nil
}

// downgradeUnusedDET replaces base-column DET items that no chosen plan
// uses with RND — the security-conscious default that gives the paper's
// Table 3 its RND-majority census: a column reveals duplicates only if
// some query actually needs equality, grouping, or a join over it.
// RND costs 16 extra bytes per value, so under a space budget the
// cheapest-to-upgrade columns convert first and the rest stay DET once the
// spare space runs out.
func downgradeUnusedDET(d *enc.Design, usedKeys map[string]bool, ctx *planner.Context, spare float64) *enc.Design {
	type cand struct {
		idx  int
		cost float64
	}
	var cands []cand
	for i := range d.Items {
		it := &d.Items[i]
		if it.Scheme == enc.DET && !it.IsPrecomputed() && !usedKeys[it.Key()] {
			rows := float64(ctx.Rows(it.Table))
			cands = append(cands, cand{idx: i, cost: rows * 16})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].cost < cands[b].cost })
	downgrade := make(map[int]bool)
	for _, c := range cands {
		if c.cost > spare {
			break
		}
		spare -= c.cost
		downgrade[c.idx] = true
	}
	out := &enc.Design{GroupedAddition: d.GroupedAddition, MultiRowPacking: d.MultiRowPacking}
	for i, it := range d.Items {
		if downgrade[i] {
			out.Add(enc.Item{Table: it.Table, Expr: it.Expr, Scheme: enc.RND, PlainKind: it.PlainKind})
			continue
		}
		out.Add(it)
	}
	return out
}

// withFlags clones a design with the option's Paillier layout flags.
func withFlags(d *enc.Design, opts Options) *enc.Design {
	out := &enc.Design{
		GroupedAddition: opts.GroupedAddition,
		MultiRowPacking: opts.MultiRowPacking,
	}
	out.Merge(d)
	return out
}

// spaceGreedy is the §8.6 baseline: take every item the unconstrained
// design wants, then delete the largest until the budget is met; each query
// then uses its best candidate among surviving items.
func spaceGreedy(prob *ilp.Problem, budget float64) []int {
	// Unconstrained choice and its item union.
	inUse := make(map[int]bool)
	for i := range prob.Candidates {
		bestJ, bestC := 0, math.Inf(1)
		for j, c := range prob.Candidates[i] {
			if c.Cost < bestC {
				bestC = c.Cost
				bestJ = j
			}
		}
		for _, k := range prob.Candidates[i][bestJ].Items {
			inUse[k] = true
		}
	}
	var used []int
	total := 0.0
	for k := range inUse {
		used = append(used, k)
		total += prob.Sizes[k]
	}
	sort.Slice(used, func(a, b int) bool { return prob.Sizes[used[a]] > prob.Sizes[used[b]] })
	for _, k := range used {
		if total <= budget {
			break
		}
		delete(inUse, k)
		total -= prob.Sizes[k]
	}
	// Re-choose each query's best candidate among surviving items.
	chosen := make([]int, len(prob.Candidates))
	for i := range prob.Candidates {
		bestJ, bestC := -1, math.Inf(1)
		for j, c := range prob.Candidates[i] {
			ok := true
			for _, k := range c.Items {
				if !inUse[k] {
					ok = false
					break
				}
			}
			if ok && c.Cost < bestC {
				bestC = c.Cost
				bestJ = j
			}
		}
		if bestJ < 0 {
			bestJ = 0 // should not happen: baseline candidates need no items
		}
		chosen[i] = bestJ
	}
	return chosen
}

// filterPrecomputed drops units requiring precomputed-expression items.
func filterPrecomputed(units []planner.Unit) []planner.Unit {
	var out []planner.Unit
	for _, u := range units {
		ok := true
		for i := range u.Items {
			if u.Items[i].IsPrecomputed() {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, u)
		}
	}
	return out
}

// BaselineDesign returns the always-present encryptions: DET for every
// column (the paper's S=1 anchor — length-preserving, so the baseline
// costs roughly the plaintext size), RND for a Float column, which DET
// cannot encrypt. With onion=true it adds RND wrappers for every column
// and OPE for ordered types (CryptDB's onion layout).
func BaselineDesign(cat *storage.Catalog, joinGroups map[string]string, onion bool) *enc.Design {
	d := &enc.Design{}
	for _, name := range cat.Names() {
		t, err := cat.Table(name)
		if err != nil {
			continue
		}
		for _, col := range t.Schema.Cols {
			kind := col.Type.Kind()
			if !enc.DET.Accepts(kind) { // a Float: RND alone stores it
				d.Add(enc.ColumnItem(name, col.Name, enc.RND, kind))
				continue
			}
			det := enc.ColumnItem(name, col.Name, enc.DET, kind)
			if g, ok := joinGroups[name+"."+col.Name]; ok {
				det.JoinGroup = g
			}
			d.Add(det)
			if !onion {
				continue
			}
			d.Add(enc.ColumnItem(name, col.Name, enc.RND, kind))
			if kind == value.Int || kind == value.Date {
				d.Add(enc.ColumnItem(name, col.Name, enc.OPE, kind))
			}
		}
	}
	return d
}

// itemBytes estimates one item's server footprint.
func itemBytes(ctx *planner.Context, it *enc.Item, opts Options) float64 {
	rows := float64(ctx.Rows(it.Table))
	width := 8.0
	if cr, ok := it.Expr.(*ast.ColumnRef); ok {
		if l := ctx.Col(it.Table, cr.Column).AvgLen; l > 0 {
			width = float64(l)
		}
	}
	switch it.Scheme {
	case enc.DET:
		return rows * width // length-preserving (§5.2)
	case enc.OPE:
		return rows * 16
	case enc.RND:
		return rows * (width + 16)
	case enc.SEARCH:
		return rows * width * 1.4
	case enc.HOM:
		cipher := float64(ctx.Cost.HomCipherBytes)
		if !opts.MultiRowPacking {
			// One 2,048-bit ciphertext per row per column (CryptDB-era).
			return rows * cipher
		}
		// Packed: the item occupies ~45 bits of each packed row slot.
		plainBits := cipher * 8 / 2
		return rows * cipher * 45 / plainBits
	}
	return rows * width
}

// designBytes estimates the whole design's encrypted footprint.
func designBytes(ctx *planner.Context, cat *storage.Catalog) float64 {
	total := 0.0
	opts := Options{MultiRowPacking: ctx.Design.MultiRowPacking, GroupedAddition: ctx.Design.GroupedAddition}
	for _, name := range cat.Names() {
		hasHom := false
		for _, it := range ctx.Design.TableItems(name) {
			total += itemBytes(ctx, &it, opts)
			if it.Scheme == enc.HOM {
				hasHom = true
			}
		}
		rows := float64(ctx.Rows(name))
		total += rows * 24 // row overhead
		if hasHom {
			total += rows * 8 // row_id
		}
	}
	return total
}
