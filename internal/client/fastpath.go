package client

// The repeated-query fast path. A query's cache key is its *shape*: the
// SQL rendering with every literal hoisted into a parameter slot, plus the
// kind of every parameter value (an int-vs-string parameter changes which
// encrypted rewrites are legal, so kinds are part of the key), plus the
// planner mode. The first execution of a shape plans normally, then
// parameterizes the plan into a template (planner.Parameterize) and caches
// it; subsequent executions rebind — re-encrypt the parameter values under
// the sites' key items — and run, skipping parse, prepare, rewrite, and
// costing. Both the cold (filling) and warm executions of a cacheable
// shape run through the same template path, so the bytes a repeated query
// produces never depend on whether its plan was cached.

import (
	"maps"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/planner"
	"repro/internal/value"
)

// shapeParamPrefix names the parameter slots literal hoisting creates for
// the cache key (":$qpN"). The SQL lexer cannot produce a `$` in a parameter
// name, so a statement's own parameter never collides with a slot (an
// unbound one stays an error instead of taking a literal's value); caller
// parameter maps may not use the prefix — such queries bypass the cache.
const shapeParamPrefix = "$qp"

const (
	defaultPlanCacheCap  = 256
	defaultParseCacheCap = 256
)

// execCtx carries one execution's parameter bindings through the plan
// runner. The zero value is the cold path's: plan queries carry inline
// literals.
type execCtx struct {
	encp   map[string]value.Value // remote-side (":cpN") encrypted bindings
	localp map[string]value.Value // local-engine (":lpN") plaintext bindings
}

// shape is a statement's hoisted form, its hoisted values and the key prefix
// they make, built once per parse-cache entry and per Stmt: an execution
// appends only the planner mode and its parameters' kinds.
type shape struct {
	q       *ast.Query // the statement as parsed
	hoisted *ast.Query
	vals    map[string]value.Value
	key     string
}

func newShape(q *ast.Query) *shape {
	hoisted, vals, order := planner.HoistLiterals(q, shapeParamPrefix)
	var b strings.Builder
	b.WriteString(hoisted.SQL())
	for _, name := range order {
		b.WriteByte(0)
		b.WriteByte(byte(vals[name].K))
	}
	return &shape{q: q, hoisted: hoisted, vals: vals, key: b.String()}
}

// execute runs s through the plan cache, unless a caller parameter's name
// collides with the hoist prefix.
func (c *Client) execute(s *shape, params map[string]value.Value) (*Result, error) {
	var buf [8]string
	names := buf[:0]
	for name := range params {
		if strings.HasPrefix(name, shapeParamPrefix) {
			return c.executeCold(s.q, params)
		}
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	b.Grow(len(s.key) + 7 + 16*len(params))
	b.WriteString(s.key)
	if c.Greedy {
		b.WriteString("\x00greedy")
	}
	for _, name := range names {
		b.WriteByte(0)
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteByte(byte(params[name].K))
	}
	vals := params
	if len(s.vals) > 0 {
		vals = make(map[string]value.Value, len(s.vals)+len(params))
		maps.Copy(vals, s.vals)
		maps.Copy(vals, params)
	}
	return c.executeKeyed(b.String(), s.hoisted, vals)
}

// executeKeyed runs one execution through the plan cache.
func (c *Client) executeKeyed(key string, shape *ast.Query, vals map[string]value.Value) (*Result, error) {
	e, leader := c.plans.acquire(key)
	if leader {
		c.plans.misses.Add(1)
		return c.fillAndRun(e, shape, vals)
	}
	<-e.done
	if e.plan != nil {
		c.plans.hits.Add(1)
		res, ok, err := c.executeTemplate(e.plan, vals)
		if ok {
			return res, err
		}
		// Rebind refused (shouldn't happen when kinds match the key, but a
		// changed design item could): fall through to a solo plan.
	} else {
		c.plans.misses.Add(1)
	}
	return c.executeCold(shape, vals)
}

// fillAndRun is the cache-miss leader: plan the shape, parameterize into a
// template if sound, compile it, publish the entry, and execute. Cacheable
// shapes execute through the template (identical code path to a warm hit);
// uncacheable ones run their concrete plan and leave a negative entry.
func (c *Client) fillAndRun(e *planEntry, shape *ast.Query, vals map[string]value.Value) (*Result, error) {
	prepared, slots, err := planner.PrepareTagged(shape, vals)
	if err != nil {
		c.plans.abandon(e)
		return nil, err
	}
	res := &Result{}
	subbed, err := c.preExecuteScalarSubqueries(prepared, res)
	if err != nil {
		c.plans.abandon(e)
		return nil, err
	}
	plan, err := c.makePlan(prepared)
	if err != nil {
		c.plans.abandon(e)
		return nil, err
	}
	var tmpl *planner.Template
	if !subbed {
		tmpl, _ = planner.Parameterize(plan, slots)
	}
	var cp *compiled
	if tmpl != nil {
		if cp, err = c.compile(tmpl.Plan); err != nil {
			c.plans.abandon(e)
			return nil, err
		}
		cp.tmpl = tmpl
	}
	c.plans.fill(e, cp) // nil: negative, shape known uncacheable
	if cp != nil {
		if tres, ok, err := c.executeTemplate(cp, vals); ok {
			if tres != nil {
				tres.PlanCacheHit = false // the leader planned; not a hit
			}
			return tres, err
		}
		// Rebind refused right after parameterizing: run the concrete plan.
	}
	return c.runPlanned(plan, res)
}

// executeTemplate runs one execution of a cached template: rebind the
// parameter values (deterministic re-encryption per site) and run the
// shared compiled plan. ok=false means the rebind failed and the caller
// should plan from scratch.
func (c *Client) executeTemplate(cp *compiled, vals map[string]value.Value) (*Result, bool, error) {
	encp, localp, err := cp.tmpl.Rebind(c.Keys, vals)
	if err != nil {
		return nil, false, err
	}
	res, err := c.run(cp, &Result{PlanCacheHit: true}, execCtx{encp: encp, localp: localp})
	return res, true, err
}
