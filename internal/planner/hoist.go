package planner

// Literal hoisting: rewrite every literal constant in a query — at any
// depth, including subqueries — into a named parameter reference, returning
// the values separately. The transport renders RemoteSQL for the wire this
// way: ciphertext byte-string literals have no re-parsable SQL spelling.
// (The client's plan cache keys a statement by its SQL text and keeps its
// literals inline; it hoists nothing.)
//
// Each literal occurrence gets its own slot, so a slot name identifies one
// syntactic site exactly.

import (
	"strconv"

	"repro/internal/ast"
	"repro/internal/value"
)

// HoistLiterals returns a copy of q with every literal replaced by a
// parameter reference :<prefix>N, the parameter values, and their slot
// order (deterministic: ast.EachBlock order, and clause order within a
// block).
func HoistLiterals(q *ast.Query, prefix string) (*ast.Query, map[string]value.Value, []string) {
	out := q.Clone()
	params := make(map[string]value.Value)
	var order []string
	ast.RewriteStatement(out, func(x ast.Expr) ast.Expr {
		lit, ok := x.(*ast.Literal)
		if !ok {
			return nil
		}
		name := prefix + strconv.Itoa(len(order))
		params[name] = lit.Val
		order = append(order, name)
		return &ast.Param{Name: name}
	})
	return out, params, order
}
