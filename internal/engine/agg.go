package engine

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/value"
)

// aggSpec is one distinct aggregate to compute per group: either a builtin
// AggExpr or an aggregate-UDF FuncCall. Keyed by rendered SQL.
type aggSpec struct {
	key string
	agg *ast.AggExpr  // builtin; nil for UDFs
	udf *ast.FuncCall // aggregate UDF call; nil for builtins
}

// collectAggSpecs finds every distinct aggregate the clauses of a grouped
// query mention (its projections, HAVING and ORDER BY, where aggregates can
// legally appear).
func (c *execCtx) collectAggSpecs(q *ast.Query) []aggSpec {
	seen := make(map[string]bool)
	var specs []aggSpec
	q.EachExpr(func(e ast.Expr) {
		ast.Walk(e, func(x ast.Expr) {
			switch n := x.(type) {
			case *ast.AggExpr:
				k := n.SQL()
				if !seen[k] {
					seen[k] = true
					specs = append(specs, aggSpec{key: k, agg: n})
				}
			case *ast.FuncCall:
				if c.eng.IsAggUDF(n.Name) {
					k := n.SQL()
					if !seen[k] {
						seen[k] = true
						specs = append(specs, aggSpec{key: k, udf: n})
					}
				}
			}
		})
	})
	return specs
}

// builtinAggState accumulates one builtin aggregate. DISTINCT states keep
// the deduplicated values in first-occurrence row order so morsel partials
// can replay unseen values during merge deterministically: morsel partials
// merge in morsel order, so the replay order equals the first-occurrence
// order of a sequential scan.
type builtinAggState struct {
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

func (s *builtinAggState) add(v value.Value) {
	if v.IsNull() {
		return
	}
	if s.distinct {
		if s.seen == nil {
			s.seen = make(map[string]bool)
		}
		k := v.HashKey()
		if s.seen[k] {
			return
		}
		s.seen[k] = true
		s.distinctVals = append(s.distinctVals, v)
	}
	s.accumulate(v)
}

// accumulate folds one (already dedup'd) value into the running state.
func (s *builtinAggState) accumulate(v value.Value) {
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

// merge folds a morsel partial (same aggregate over a disjoint, later row
// range) into s. DISTINCT partials replay only values s has not seen, in
// the partial's first-occurrence order.
func (s *builtinAggState) merge(o *builtinAggState) {
	if s.distinct {
		if s.seen == nil {
			s.seen = make(map[string]bool)
		}
		for _, v := range o.distinctVals {
			k := v.HashKey()
			if s.seen[k] {
				continue
			}
			s.seen[k] = true
			s.distinctVals = append(s.distinctVals, v)
			s.accumulate(v)
		}
		return
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
}

func (s *builtinAggState) result() value.Value {
	switch s.fn {
	case ast.AggCount:
		return value.NewInt(s.count)
	case ast.AggSum:
		if !s.hasVal {
			return value.NewNull()
		}
		if s.isFloat {
			return value.NewFloat(s.sumF)
		}
		return value.NewInt(s.sumI)
	case ast.AggAvg:
		if s.count == 0 {
			return value.NewNull()
		}
		return value.NewFloat(s.sumF / float64(s.count))
	case ast.AggMin, ast.AggMax:
		if !s.hasVal {
			return value.NewNull()
		}
		return s.minMax
	}
	return value.NewNull()
}

// aggGroup holds one group's accumulation state: one slot per aggSpec,
// exactly one of builtins[i]/udfs[i] non-nil.
type aggGroup struct {
	firstRow []value.Value
	builtins []*builtinAggState
	udfs     []AggState
}

// newAggGroup creates fresh states for one group. UDF states capture c's
// stats, so they must be created on the context that will call Result.
func (c *execCtx) newAggGroup(specs []aggSpec, row []value.Value) (*aggGroup, error) {
	g := &aggGroup{firstRow: row}
	for _, sp := range specs {
		if sp.agg != nil {
			g.builtins = append(g.builtins, &builtinAggState{fn: sp.agg.Func, distinct: sp.agg.Distinct})
			g.udfs = append(g.udfs, nil)
			continue
		}
		f, ok := c.eng.aggs[strings.ToLower(sp.udf.Name)]
		if !ok {
			return nil, fmt.Errorf("engine: unregistered aggregate UDF %s", sp.udf.Name)
		}
		g.builtins = append(g.builtins, nil)
		g.udfs = append(g.udfs, f(c.stats))
	}
	return g, nil
}

// merge folds another group's partial states (same specs, disjoint rows,
// later morsel) into g.
func (g *aggGroup) merge(o *aggGroup) error {
	for i := range g.builtins {
		if g.builtins[i] != nil {
			g.builtins[i].merge(o.builtins[i])
			continue
		}
		if err := g.udfs[i].Merge(o.udfs[i]); err != nil {
			return err
		}
	}
	return nil
}

// groupSet is an insertion-ordered collection of groups.
type groupSet struct {
	m     map[string]*aggGroup
	order []string // group keys in order of first appearance
}

// newGroupSet creates an empty groupSet.
func newGroupSet() *groupSet { return &groupSet{m: make(map[string]*aggGroup)} }

// accumulateRows folds one batch of rows into gs, evaluating GROUP BY keys
// and aggregate arguments on c. rel supplies the column layout for name
// resolution.
func (c *execCtx) accumulateRows(q *ast.Query, specs []aggSpec, gs *groupSet, rel *relation, rows [][]value.Value, outer *env) error {
	for _, row := range rows {
		en := &env{rel: rel, row: row, outer: outer, ctx: c}
		var kb strings.Builder
		for _, g := range q.GroupBy {
			v, err := eval(en, g)
			if err != nil {
				return err
			}
			kb.WriteString(v.HashKey())
			kb.WriteByte(0)
		}
		key := kb.String()
		grp, ok := gs.m[key]
		if !ok {
			var err error
			grp, err = c.newAggGroup(specs, row)
			if err != nil {
				return err
			}
			gs.m[key] = grp
			gs.order = append(gs.order, key)
		}
		for i, sp := range specs {
			switch {
			case sp.agg != nil:
				if sp.agg.Star {
					grp.builtins[i].count++
					grp.builtins[i].hasVal = true
					continue
				}
				v, err := eval(en, sp.agg.Arg)
				if err != nil {
					return err
				}
				grp.builtins[i].add(v)
			default:
				args := make([]value.Value, len(sp.udf.Args))
				for j, a := range sp.udf.Args {
					v, err := eval(en, a)
					if err != nil {
						return err
					}
					args[j] = v
				}
				if err := grp.udfs[i].Add(args); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// mergeGroupParts folds per-morsel groupSets in morsel order, so group
// first-appearance order and order-sensitive aggregate states match a
// sequential scan. UDF states merge into fresh states created on c, whose
// stats they must capture for Result. Builtin states capture nothing, so
// the first morsel's set is the base and only the later ones merge into
// it, which builds and merges none of its groups again. That is exact: a
// fresh state merged with a partial equals the partial, since a Float sum
// starts at +0.0 and so never holds -0.0.
func (c *execCtx) mergeGroupParts(specs []aggSpec, parts []*groupSet) (*groupSet, error) {
	merged := newGroupSet()
	if !specsHaveUDF(specs) {
		merged, parts = parts[0], parts[1:]
	}
	for _, part := range parts {
		for _, key := range part.order {
			grp, ok := merged.m[key]
			if !ok {
				var err error
				grp, err = c.newAggGroup(specs, part.m[key].firstRow)
				if err != nil {
					return nil, err
				}
				merged.m[key] = grp
				merged.order = append(merged.order, key)
			}
			if err := grp.merge(part.m[key]); err != nil {
				return nil, err
			}
		}
	}
	return merged, nil
}

// specsHaveUDF reports whether any aggregate is a UDF — the only states
// whose Result can be expensive enough (Paillier products and modular
// exponentiations on the server) to be worth fanning across workers.
func specsHaveUDF(specs []aggSpec) bool {
	for _, sp := range specs {
		if sp.udf != nil {
			return true
		}
	}
	return false
}

// resolveAggResults finalizes the aggregates of groups [lo,hi) in
// first-appearance order — one AggState.Result per (group, spec) —
// fanning the groups, each resolved on its own, across GOMAXPROCS workers
// when UDF aggregates are present. The AggState contract requires Result to
// tolerate concurrent invocation across distinct states (the server's
// Paillier UDF accumulates its stats atomically for exactly this). Errors
// surface in group order, matching the sequential loop. Grouped emission
// calls this one output batch of groups at a time, so the Paillier work
// both fans across workers and is never performed for groups a LIMIT cuts
// off.
func (c *execCtx) resolveAggResults(specs []aggSpec, groups *groupSet, lo, hi int) ([]map[string]value.Value, error) {
	n := hi - lo
	out := make([]map[string]value.Value, n)
	resolve := func(gi int) error {
		grp := groups.m[groups.order[lo+gi]]
		vals := make(map[string]value.Value, len(specs))
		for i, sp := range specs {
			if sp.agg != nil {
				vals[sp.key] = grp.builtins[i].result()
				continue
			}
			v, err := grp.udfs[i].Result()
			if err != nil {
				return err
			}
			vals[sp.key] = v
		}
		out[gi] = vals
		return nil
	}
	if !specsHaveUDF(specs) {
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
func (c *execCtx) ensureGroup(q *ast.Query, specs []aggSpec, groups *groupSet) error {
	if len(q.GroupBy) > 0 || len(groups.order) > 0 {
		return nil
	}
	grp, err := c.newAggGroup(specs, nil)
	if err != nil {
		return err
	}
	groups.m[""] = grp
	groups.order = append(groups.order, "")
	return nil
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
		gs := newGroupSet()
		it := p.chain(sc, lo, hi)
		defer it.close()
		for {
			b, err := it.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return gs, nil
			}
			if err := sc.accumulateRows(g.q, g.specs, gs, p.joined, b, p.outer); err != nil {
				return nil, err
			}
		}
	}
	var err error
	n := p.src.n()
	if g.morsels > 1 {
		var parts []*groupSet
		if parts, err = morselCollect(c, n, fold); err == nil {
			g.groups, err = c.mergeGroupParts(g.specs, parts)
		}
	} else {
		g.groups, err = fold(c, 0, n)
	}
	if err != nil {
		return err
	}
	return c.ensureGroup(g.q, g.specs, g.groups)
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
		resolved, err := g.c.resolveAggResults(g.specs, g.groups, lo, hi)
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
