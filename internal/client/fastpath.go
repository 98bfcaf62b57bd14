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
	"sort"
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
// runner. nil = cold path: plan queries carry inline literals.
type execCtx struct {
	encp   map[string]value.Value // remote-side (":cpN") encrypted bindings
	localp map[string]value.Value // local-engine (":lpN") plaintext bindings
}

func (ec *execCtx) localParams() map[string]value.Value {
	if ec == nil {
		return nil
	}
	return ec.localp
}

func (ec *execCtx) encParams() map[string]value.Value {
	if ec == nil {
		return nil
	}
	return ec.encp
}

// shapeKey normalizes a query to its cache key, shape AST, and merged
// parameter values. ok=false means the query can't go through the cache
// (caller parameter names collide with the hoist prefix).
func (c *Client) shapeKey(q *ast.Query, params map[string]value.Value) (string, *ast.Query, map[string]value.Value, bool) {
	for name := range params {
		if strings.HasPrefix(name, shapeParamPrefix) {
			return "", nil, nil, false
		}
	}
	shape, hoisted, order := planner.HoistLiterals(q, shapeParamPrefix)
	vals := make(map[string]value.Value, len(hoisted)+len(params))
	for k, v := range hoisted {
		vals[k] = v
	}
	for k, v := range params {
		vals[k] = v
	}
	var b strings.Builder
	b.WriteString(shape.SQL())
	if c.Greedy {
		b.WriteString("\x00greedy")
	}
	for _, name := range order {
		b.WriteByte(0)
		b.WriteByte(byte(hoisted[name].K))
	}
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.WriteByte(0)
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteByte(byte(params[name].K))
	}
	return b.String(), shape, vals, true
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
// template if sound, publish the entry, and execute. Cacheable shapes
// execute through the template (identical code path to a warm hit);
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
	c.plans.fill(e, tmpl) // nil: negative, shape known uncacheable
	if tmpl != nil {
		if tres, ok, err := c.executeTemplate(tmpl, vals); ok {
			if tres != nil {
				tres.PlanCacheHit = false // the leader planned; not a hit
			}
			return tres, err
		}
		// Rebind refused right after parameterizing: run the concrete plan.
	}
	return c.run(plan, res, nil)
}

// executeTemplate runs one execution of a cached template: rebind the
// parameter values (deterministic re-encryption per site) and run the
// shared plan. ok=false means the rebind failed and the caller should plan
// from scratch.
func (c *Client) executeTemplate(tmpl *planner.Template, vals map[string]value.Value) (*Result, bool, error) {
	encp, localp, err := tmpl.Rebind(c.Keys, vals)
	if err != nil {
		return nil, false, err
	}
	res, err := c.run(tmpl.Plan, &Result{PlanCacheHit: true}, &execCtx{encp: encp, localp: localp})
	return res, true, err
}
