package planner

import (
	"sort"

	"repro/internal/ast"
)

// BuildJoinGroups infers which columns must share a DET key from the
// workload's equi-join predicates (including correlation predicates inside
// subqueries), via union-find over column identities. The designer feeds
// the result into Context.JoinGroups; CryptDB's JOIN onions solved the same
// problem by adjusting keys at query time.
func BuildJoinGroups(ctx *Context, queries []*ast.Query) map[string]string {
	parent := make(map[string]string)
	var find func(x string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			// Deterministic root: lexicographic minimum.
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	// Every block's WHERE equalities between two base-table columns, each
	// bound by the resolver.
	for _, q := range queries {
		// A name that fails to bind joins nothing.
		base := make(map[*ast.ColumnRef]string) // column -> its base table
		_ = ast.Bind(q, nil, ctx.Cat, func(c *ast.ColumnRef, b ast.Binding) error {
			if b.Block != nil && b.Entry >= 0 && b.Block.From[b.Entry].Sub == nil {
				base[c] = b.Block.From[b.Entry].Name
			}
			return nil
		})
		ast.EachBlock(q, func(b, _ *ast.Query) {
			ast.Walk(b.Where, func(x ast.Expr) {
				eq, ok := x.(*ast.BinaryExpr)
				if !ok || eq.Op != ast.OpEq {
					return
				}
				lcr, lok := eq.Left.(*ast.ColumnRef)
				rcr, rok := eq.Right.(*ast.ColumnRef)
				if !lok || !rok || base[lcr] == "" || base[rcr] == "" {
					return
				}
				lid := base[lcr] + "." + lcr.Column
				rid := base[rcr] + "." + rcr.Column
				if lid != rid {
					union(lid, rid)
				}
			})
		})
	}

	// Collapse to root names; only multi-member groups matter.
	members := make(map[string][]string)
	for x := range parent {
		members[find(x)] = append(members[find(x)], x)
	}
	out := make(map[string]string)
	for root, ms := range members {
		if len(ms) < 2 {
			continue
		}
		sort.Strings(ms)
		for _, m := range ms {
			out[m] = root
		}
	}
	return out
}
