package engine

import (
	"math"

	"repro/internal/ast"
	"repro/internal/value"
)

// JoinOrders lends the external tests of this package the join order e
// chooses for q: for each block of q that joins, parents first, the
// reference names of its FROM entries in the order they join. A derived
// table in a joining block is drained to count its rows, as prepare does.
func JoinOrders(e *Engine, q *ast.Query, params map[string]value.Value) ([][]string, error) {
	c := e.newCtx(q, params, math.MaxInt)
	if err := c.resolve(q); err != nil {
		return nil, err
	}
	var out [][]string
	var err error
	ast.EachBlock(q, func(b, _ *ast.Query) {
		if err != nil || len(b.From) < 2 {
			return
		}
		srcs := make([]*rowSource, len(b.From))
		for i := range b.From {
			if srcs[i], _, err = c.fromSource(&b.From[i], nil); err != nil {
				return
			}
		}
		var plan *joinPlan
		if plan, err = planJoin(b, c.names(), srcs); err != nil {
			return
		}
		names := []string{b.From[plan.start].RefName()}
		for _, st := range plan.steps {
			names = append(names, b.From[st.next].RefName())
		}
		out = append(out, names)
	})
	return out, err
}
