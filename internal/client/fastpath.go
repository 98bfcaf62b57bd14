package client

// The repeated-query fast path. A statement's cache key is its SQL text,
// length-prefixed, plus the planner mode and the name and kind of every
// caller parameter (an int-vs-string parameter changes which encrypted
// rewrites are legal, so kinds are part of the key). Literals stay inline:
// the planner absorbs constants by design (§5.1 precomputation matches
// expressions over them, constant folding merges them), so only caller
// parameters become template sites. A text with other literals is another
// entry; constants that vary go through Prepare's parameters.
//
// The first execution of a key parses the text (unless the caller holds its
// AST), plans, parameterizes the plan into a template (planner.Parameterize)
// and caches it; later executions rebind — re-encrypt the parameter values
// under the sites' key items — and run, skipping parse, prepare, rewrite and
// costing. Both the filling and the warm executions of a cacheable statement
// run through the same template path, so the bytes a repeated query produces
// never depend on whether its plan was cached.

import (
	"encoding/binary"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/value"
)

const defaultPlanCacheCap = 256

// execCtx carries one execution's parameter bindings through the plan
// runner. The zero value is an uncached plan's: its queries carry inline
// literals.
type execCtx struct {
	encp   map[string]value.Value // remote-side (":cpN") encrypted bindings
	localp map[string]value.Value // local-engine (":lpN") plaintext bindings
}

// planKey frames sql, the planner mode and the caller parameters' names and
// kinds into one cache key. The text and every name are length-prefixed, so
// no two (statement, parameter set) pairs share a key.
func planKey(sql string, greedy bool, params map[string]value.Value) string {
	var buf [8]string
	names := buf[:0]
	for name := range params {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	b.Grow(len(sql) + 4 + 16*len(names))
	writeFramed(&b, sql)
	if greedy {
		b.WriteByte('g')
	} else {
		b.WriteByte('c')
	}
	for _, name := range names {
		writeFramed(&b, name)
		b.WriteByte(byte(params[name].K))
	}
	return b.String()
}

// writeFramed writes s's length as a uvarint, then s.
func writeFramed(b *strings.Builder, s string) {
	var n [binary.MaxVarintLen64]byte
	b.Write(binary.AppendUvarint(n[:0], uint64(len(s))))
	b.WriteString(s)
}

// execute runs one execution of sql through the plan cache. q is sql parsed
// when the caller holds it (a Stmt), or nil: a miss then parses sql, once,
// as the entry's leader, and a hit needs no AST at all.
func (c *Client) execute(sql string, q *ast.Query, params map[string]value.Value) (*Result, error) {
	e, leader := c.plans.acquire(planKey(sql, c.Greedy, params))
	if leader {
		c.plans.misses.Add(1)
		return c.fillAndRun(e, sql, q, params)
	}
	<-e.done
	if e.plan != nil {
		c.plans.hits.Add(1)
		res, ok, err := c.executeTemplate(e.plan, params)
		if ok {
			return res, err
		}
		// Rebind refused (shouldn't happen when kinds match the key, but a
		// changed design item could): fall through to a solo plan.
	} else {
		c.plans.misses.Add(1)
	}
	q, err := parsed(sql, q)
	if err != nil {
		return nil, err
	}
	return c.runUncached(q, params)
}

// parsed returns q, or sql parsed when q is nil.
func parsed(sql string, q *ast.Query) (*ast.Query, error) {
	if q != nil {
		return q, nil
	}
	return sqlparser.Parse(sql)
}

// fillAndRun is the cache-miss leader: plan the statement, parameterize
// into a template if sound, compile it, publish the entry, and execute.
// Cacheable statements execute through the template (identical code path to
// a warm hit); uncacheable ones run their concrete plan and leave a
// negative entry.
func (c *Client) fillAndRun(e *planEntry, sql string, q *ast.Query, vals map[string]value.Value) (*Result, error) {
	res := &Result{}
	q, err := parsed(sql, q)
	if err != nil {
		c.plans.abandon(e)
		return nil, err
	}
	plan, slots, subbed, err := c.plan(q, vals, res)
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
	c.plans.fill(e, cp) // nil: negative, statement known uncacheable
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
