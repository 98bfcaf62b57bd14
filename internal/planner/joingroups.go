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

	// Every block's WHERE equalities, resolved through its scope chained
	// over its enclosing blocks'.
	for _, q := range queries {
		ctx.blockScopes(q, nil, func(b *ast.Query, s *scope) {
			if s == nil {
				return
			}
			ast.Walk(b.Where, func(x ast.Expr) {
				eq, ok := x.(*ast.BinaryExpr)
				if !ok || eq.Op != ast.OpEq {
					return
				}
				lcr, lok := eq.Left.(*ast.ColumnRef)
				rcr, rok := eq.Right.(*ast.ColumnRef)
				if !lok || !rok {
					return
				}
				le, lok := s.entryFor(lcr)
				re, rok := s.entryFor(rcr)
				if !lok || !rok || le.table == "" || re.table == "" {
					return
				}
				lid := le.table + "." + lcr.Column
				rid := re.table + "." + rcr.Column
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
