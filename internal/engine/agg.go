package engine

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/value"
)

// aggSpec is one distinct aggregate a grouped block computes per group — a
// builtin AggExpr or an aggregate-UDF call alike: the argument expressions
// each input row evaluates, and the factory of a group's AggState. Keyed by
// rendered SQL, as eval looks the finalized value up (aggValue).
type aggSpec struct {
	key  string
	args []ast.Expr
	new  AggUDFFactory
}

// collectAggSpecs finds every distinct aggregate the clauses of a grouped
// query mention (its projections, HAVING and ORDER BY, where aggregates can
// legally appear).
func (c *execCtx) collectAggSpecs(q *ast.Query) []aggSpec {
	seen := make(map[string]bool)
	var specs []aggSpec
	add := func(x ast.Expr, args []ast.Expr, f AggUDFFactory) {
		if k := x.SQL(); !seen[k] {
			seen[k] = true
			specs = append(specs, aggSpec{key: k, args: args, new: f})
		}
	}
	q.EachExpr(func(e ast.Expr) {
		ast.Walk(e, func(x ast.Expr) {
			switch n := x.(type) {
			case *ast.AggExpr:
				var args []ast.Expr
				if !n.Star {
					args = []ast.Expr{n.Arg}
				}
				add(n, args, func(*Stats) AggState { return NewBuiltinAgg(n.Func, n.Distinct) })
			case *ast.FuncCall:
				if f, ok := c.eng.aggs[strings.ToLower(n.Name)]; ok {
					add(n, n.Args, f)
				}
			}
		})
	})
	return specs
}

// BuiltinAgg is a builtin aggregate — COUNT, SUM, AVG, MIN or MAX, DISTINCT
// or not — as an AggState: Add takes the argument's value, or no value for
// COUNT(*), and NULLs count for nothing. DISTINCT states keep the
// deduplicated values in first-occurrence row order so morsel partials can
// replay unseen values during merge deterministically: morsel partials
// merge in morsel order, so the replay order equals the first-occurrence
// order of a sequential scan. The client finishes a GROUP() column with the
// same state (NewBuiltinAgg, Reset), so an aggregate means one thing on
// every side of the split.
type BuiltinAgg struct {
	fn           ast.AggFunc
	distinct     bool
	seen         map[string]bool
	distinctVals []value.Value // seen values in first-occurrence order
	count        int64
	sumI         int64
	sumF         float64
	isFloat      bool
	hasVal       bool
	minMax       value.Value
}

// NewBuiltinAgg returns an empty state of the builtin aggregate fn.
func NewBuiltinAgg(fn ast.AggFunc, distinct bool) *BuiltinAgg {
	return &BuiltinAgg{fn: fn, distinct: distinct}
}

// Reset empties s for another group, keeping its DISTINCT storage.
func (s *BuiltinAgg) Reset() {
	clear(s.seen)
	*s = BuiltinAgg{fn: s.fn, distinct: s.distinct, seen: s.seen, distinctVals: s.distinctVals[:0]}
}

// Add folds one row: args holds the aggregate's argument, or nothing for
// COUNT(*).
func (s *BuiltinAgg) Add(args []value.Value) error {
	if len(args) == 0 {
		s.count++
		s.hasVal = true
		return nil
	}
	s.add(args[0])
	return nil
}

// add folds one argument value: a NULL counts for nothing, and a DISTINCT
// state takes a value once.
func (s *BuiltinAgg) add(v value.Value) {
	if v.IsNull() {
		return
	}
	if s.distinct {
		if s.seen == nil {
			s.seen = make(map[string]bool)
		}
		var kb [64]byte
		k := value.AppendKey(kb[:0], v)
		if s.seen[string(k)] {
			return
		}
		s.seen[string(k)] = true
		s.distinctVals = append(s.distinctVals, v)
	}
	s.accumulate(v)
}

// accumulate folds one (already dedup'd) value into the running state.
func (s *BuiltinAgg) accumulate(v value.Value) {
	s.count++
	switch s.fn {
	case ast.AggSum, ast.AggAvg:
		if v.K == value.Float {
			s.isFloat = true
		}
		s.sumI += v.AsInt()
		s.sumF += v.AsFloat()
	case ast.AggMin:
		if !s.hasVal || value.Compare(v, s.minMax) < 0 {
			s.minMax = v
		}
	case ast.AggMax:
		if !s.hasVal || value.Compare(v, s.minMax) > 0 {
			s.minMax = v
		}
	}
	s.hasVal = true
}

// Merge folds a morsel partial (same aggregate over a disjoint, later row
// range) into s. DISTINCT partials replay only values s has not seen, in
// the partial's first-occurrence order.
func (s *BuiltinAgg) Merge(other AggState) error {
	o, ok := other.(*BuiltinAgg)
	if !ok {
		return fmt.Errorf("engine: merge of %T into a builtin aggregate", other)
	}
	if s.distinct {
		for _, v := range o.distinctVals {
			s.add(v)
		}
		return nil
	}
	s.count += o.count
	s.sumI += o.sumI
	s.sumF += o.sumF
	if o.isFloat {
		s.isFloat = true
	}
	if o.hasVal {
		switch s.fn {
		case ast.AggMin:
			if !s.hasVal || value.Compare(o.minMax, s.minMax) < 0 {
				s.minMax = o.minMax
			}
		case ast.AggMax:
			if !s.hasVal || value.Compare(o.minMax, s.minMax) > 0 {
				s.minMax = o.minMax
			}
		}
		s.hasVal = true
	}
	return nil
}

// Result is the group's aggregate: SUM, AVG, MIN and MAX over no non-NULL
// value are NULL, COUNT is 0.
func (s *BuiltinAgg) Result() (value.Value, error) {
	switch s.fn {
	case ast.AggCount:
		return value.NewInt(s.count), nil
	case ast.AggSum:
		if !s.hasVal {
			return value.NewNull(), nil
		}
		if s.isFloat {
			return value.NewFloat(s.sumF), nil
		}
		return value.NewInt(s.sumI), nil
	case ast.AggAvg:
		if s.count == 0 {
			return value.NewNull(), nil
		}
		return value.NewFloat(s.sumF / float64(s.count)), nil
	case ast.AggMin, ast.AggMax:
		if !s.hasVal {
			return value.NewNull(), nil
		}
		return s.minMax, nil
	}
	return value.NewNull(), nil
}

// aggGroup holds one group's accumulation state: one AggState per aggSpec.
type aggGroup struct {
	firstRow []value.Value
	states   []AggState
}

// merge folds another group's partial states (same specs, disjoint rows,
// later morsel) into g.
func (g *aggGroup) merge(o *aggGroup) error {
	for i, st := range g.states {
		if err := st.Merge(o.states[i]); err != nil {
			return err
		}
	}
	return nil
}

// groupSet is an insertion-ordered collection of groups. Every morsel of a
// block folds into its own set, but all of them create their states with
// the block's Stats sink, so a state is finalized (and charges its work)
// wherever its group ends up after the merge.
type groupSet struct {
	m     map[string]*aggGroup
	order []string      // group keys in order of first appearance
	sink  *Stats        // the Stats every state's factory captures
	args  []value.Value // one aggregate's arguments for one row, reused
	key   []byte        // one row's group key, reused
}

// newGroupSet creates an empty groupSet whose states charge sink.
func newGroupSet(sink *Stats) *groupSet {
	return &groupSet{m: make(map[string]*aggGroup), sink: sink}
}

// add creates the group key with fresh states, row its first row.
func (gs *groupSet) add(specs []aggSpec, key string, row []value.Value) *aggGroup {
	g := &aggGroup{firstRow: row, states: make([]AggState, len(specs))}
	for i, sp := range specs {
		g.states[i] = sp.new(gs.sink)
	}
	gs.m[key] = g
	gs.order = append(gs.order, key)
	return g
}

// accumulateRows folds one batch of rows into gs, evaluating GROUP BY keys
// and aggregate arguments on c. rel supplies the column layout for name
// resolution. A row's arguments are evaluated into one buffer reused for
// every aggregate and row, which AggState.Add must not retain. A new
// group keeps a copy of its first row when the batch is borrowed.
func (c *execCtx) accumulateRows(q *ast.Query, specs []aggSpec, gs *groupSet, rel *relation, rows [][]value.Value, borrowed bool, outer *env) error {
	en := &env{rel: rel, outer: outer, ctx: c}
	for _, row := range rows {
		en.row = row
		gs.key = gs.key[:0]
		for _, g := range q.GroupBy {
			v, err := eval(en, g)
			if err != nil {
				return err
			}
			gs.key = value.AppendKey(gs.key, v)
		}
		grp, ok := gs.m[string(gs.key)]
		if !ok {
			first := row
			if borrowed {
				first = slices.Clone(row)
			}
			grp = gs.add(specs, string(gs.key), first)
		}
		for i, sp := range specs {
			gs.args = gs.args[:0]
			for _, a := range sp.args {
				v, err := eval(en, a)
				if err != nil {
					return err
				}
				gs.args = append(gs.args, v)
			}
			if err := grp.states[i].Add(gs.args); err != nil {
				return err
			}
		}
	}
	return nil
}

// mergeGroupParts folds per-morsel groupSets in morsel order into the
// first, so group first-appearance order and order-sensitive aggregate
// states match a sequential scan. A group a later morsel meets first joins
// as it is: its states are that group's partial from its first row on.
func mergeGroupParts(parts []*groupSet) (*groupSet, error) {
	merged := parts[0]
	for _, part := range parts[1:] {
		for _, key := range part.order {
			o := part.m[key]
			grp, ok := merged.m[key]
			if !ok {
				merged.m[key] = o
				merged.order = append(merged.order, key)
				continue
			}
			if err := grp.merge(o); err != nil {
				return nil, err
			}
		}
	}
	return merged, nil
}

// resolveAggResults finalizes the aggregates of groups [lo,hi) in
// first-appearance order — one AggState.Result per (group, spec). A block
// that may start workers (one not under an outer row, which may already run
// on one) fans the groups, each resolved on its own, across GOMAXPROCS
// workers: the server's Paillier Results are modular products worth it.
// The AggState contract requires Result to tolerate concurrent invocation
// across distinct states (the server's Paillier UDF accumulates its stats
// atomically for exactly this). Errors surface in group order, matching
// the sequential loop. Grouped emission calls this one output batch of
// groups at a time, so the Paillier work both fans across workers and is
// never performed for groups a LIMIT cuts off.
func resolveAggResults(specs []aggSpec, groups *groupSet, lo, hi int, fan bool) ([]map[string]value.Value, error) {
	n := hi - lo
	out := make([]map[string]value.Value, n)
	resolve := func(gi int) error {
		grp := groups.m[groups.order[lo+gi]]
		vals := make(map[string]value.Value, len(specs))
		for i, sp := range specs {
			v, err := grp.states[i].Result()
			if err != nil {
				return err
			}
			vals[sp.key] = v
		}
		out[gi] = vals
		return nil
	}
	if !fan {
		for gi := 0; gi < n; gi++ {
			if err := resolve(gi); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if err := parallelFor(n, resolve); err != nil {
		return nil, err
	}
	return out, nil
}

// ensureGroup guarantees the single implicit group of an aggregate query
// without GROUP BY: even over zero input rows it produces exactly one row
// (COUNT(*) = 0, SUM = NULL).
func ensureGroup(q *ast.Query, specs []aggSpec, groups *groupSet) {
	if len(q.GroupBy) == 0 && len(groups.order) == 0 {
		groups.add(specs, "", nil)
	}
}

// groupEnv builds the evaluation environment for one finalized group:
// the group's retained first row for GROUP BY column references, its
// resolved aggregate values.
func groupEnv(c *execCtx, in *relation, grp *aggGroup, aggVals map[string]value.Value, outer *env) *env {
	en := &env{rel: in, row: grp.firstRow, outer: outer, aggs: aggVals, ctx: c}
	if grp.firstRow == nil {
		en.rel = nil
	}
	return en
}

// groupEmitter is the grouped breaker. Its first pull accumulates: every
// chain of the block folds its batches into a groupSet (one per morsel,
// merged in morsel order through AggState.Merge, so group first-appearance
// order and order-sensitive aggregate states match a sequential scan).
// From then on the finished groups finalize and emit in output batches —
// each next() resolves one batch worth of groups (resolveAggResults fans
// their Paillier Result work across workers), applies HAVING, and projects
// the survivors, appending the ORDER BY keys when the block sorts. So the
// whole grouped result never exists at once unless a sort needs it,
// time-to-first-batch is O(accumulation + one batch of finalization), and
// a LIMIT that stops pulling leaves the remaining groups' (expensive,
// crypto-heavy) finalization unperformed.
type groupEmitter struct {
	c       *execCtx
	q       *ast.Query
	p       *pipeline
	morsels int
	specs   []aggSpec
	groups  *groupSet // nil until accumulated
	pos     int
	closed  bool
}

// accumulate runs the block's chains to exhaustion into g.groups.
func (g *groupEmitter) accumulate() error {
	c, p := g.c, g.p
	g.specs = c.collectAggSpecs(g.q)
	fold := func(sc *execCtx, lo, hi int) (*groupSet, error) {
		gs := newGroupSet(c.stats)
		it, borrowed := p.chain(sc, lo, hi, true)
		defer it.close()
		for {
			b, err := it.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return gs, nil
			}
			if err := sc.accumulateRows(g.q, g.specs, gs, p.joined, b, borrowed, p.outer); err != nil {
				return nil, err
			}
		}
	}
	var err error
	n := p.src.n()
	if g.morsels > 1 {
		var parts []*groupSet
		if parts, err = morselCollect(c, n, fold); err == nil {
			g.groups, err = mergeGroupParts(parts)
		}
	} else {
		g.groups, err = fold(c, 0, n)
	}
	if err != nil {
		return err
	}
	ensureGroup(g.q, g.specs, g.groups)
	return nil
}

func (g *groupEmitter) next() ([][]value.Value, error) {
	if g.closed {
		return nil, nil
	}
	if g.groups == nil {
		if err := g.accumulate(); err != nil {
			g.closed = true
			return nil, err
		}
	}
	for g.pos < len(g.groups.order) {
		lo, hi := g.pos, batchEnd(g.pos, len(g.groups.order), g.c.batch)
		g.pos = hi
		resolved, err := resolveAggResults(g.specs, g.groups, lo, hi, g.p.outer == nil)
		if err != nil {
			return nil, err
		}
		out := make([][]value.Value, 0, hi-lo)
		for gi := lo; gi < hi; gi++ {
			grp := g.groups.m[g.groups.order[gi]]
			en := groupEnv(g.c, g.p.joined, grp, resolved[gi-lo], g.p.outer)
			if g.q.Having != nil {
				ok, err := evalBool(en, g.q.Having)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			vals, err := projectRow(en, g.q)
			if err != nil {
				return nil, err
			}
			out = append(out, vals)
		}
		// Release the emitted groups: a shipped batch must not stay
		// pinned (nor its accumulator states — for Paillier aggregates
		// the per-group state is the expensive part) until the stream
		// ends, mirroring cutFrame's release-on-emit.
		for gi := lo; gi < hi; gi++ {
			delete(g.groups.m, g.groups.order[gi])
		}
		if len(out) > 0 {
			return out, nil
		}
	}
	return nil, nil
}

func (g *groupEmitter) close() { g.closed = true }
