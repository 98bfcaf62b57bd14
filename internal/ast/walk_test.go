package ast_test

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
	"repro/internal/value"
)

// blockStatement is three blocks deep, with subqueries in all five clauses
// — some under several expression levels — and in a derived table. Every
// block's FROM names a table after the block, and every block holds
// literals, some in its own subquery-bearing expressions.
const blockStatement = `SELECT (SELECT MAX(a) FROM sel WHERE a > 2 AND EXISTS (SELECT 1 FROM sel_x WHERE sel_x.b = sel.a + 3)) AS m
FROM root, (SELECT k FROM der WHERE k > 2 + (SELECT MIN(k) FROM der_x WHERE k = 3)) d
WHERE root.v + 1 IN (SELECT v FROM whr WHERE NOT (v * 2 = (SELECT MAX(v) FROM whr_x WHERE v < 3 AND EXISTS (SELECT 1 FROM whr_xx WHERE 4 = 4))))
  AND root.v > 1
GROUP BY root.g, (SELECT COUNT(*) FROM grp WHERE grp.z = root.g + 2)
HAVING COUNT(*) > 1 + (SELECT COUNT(*) FROM hav WHERE 2 = 2 GROUP BY (SELECT 3 FROM hav_x))
ORDER BY (SELECT MAX(o) FROM ord WHERE o > 2 ORDER BY (SELECT 3 FROM ord_x WHERE o = 3))`

// enclosing maps each block (by its FROM table) to the block holding it.
var enclosing = map[string]string{
	"root": "",
	"der":  "root", "der_x": "der",
	"sel": "root", "sel_x": "sel",
	"whr": "root", "whr_x": "whr", "whr_xx": "whr_x",
	"grp": "root",
	"hav": "root", "hav_x": "hav",
	"ord": "root", "ord_x": "ord",
}

// blockName names a block by its first FROM table.
func blockName(q *ast.Query) string {
	if q == nil {
		return ""
	}
	return q.From[0].Name
}

// TestEachBlockYieldsEveryBlockOnce: the iterator yields each of the
// statement's 13 blocks exactly once, parents before children, with the
// block that holds it, in EachBlock's documented order.
func TestEachBlockYieldsEveryBlockOnce(t *testing.T) {
	q := sqlparser.MustParse(blockStatement)
	var order []string
	seen := map[string]int{}
	ast.EachBlock(q, func(b, up *ast.Query) {
		name := blockName(b)
		if want, ok := enclosing[name]; !ok || blockName(up) != want {
			t.Errorf("block %s yielded with enclosing %q, want %q", name, blockName(up), want)
		}
		if up != nil && seen[blockName(up)] == 0 {
			t.Errorf("block %s yielded before its enclosing block %s", name, blockName(up))
		}
		seen[name]++
		order = append(order, name)
	})
	for name := range enclosing {
		if seen[name] != 1 {
			t.Errorf("block %s yielded %d times, want once", name, seen[name])
		}
	}
	want := "root der der_x sel sel_x whr whr_x whr_xx grp hav hav_x ord ord_x"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order %s\nwant  %s", got, want)
	}
}

// TestRewriteStatementRewritesEachClauseOnce: every literal of every block,
// in every clause, is rewritten exactly once — incrementing each by ten
// leaves no literal below ten and none at twenty or more.
func TestRewriteStatementRewritesEachClauseOnce(t *testing.T) {
	q := sqlparser.MustParse(blockStatement)
	before := literals(q)
	ast.RewriteStatement(q, func(x ast.Expr) ast.Expr {
		if l, ok := x.(*ast.Literal); ok {
			return &ast.Literal{Val: value.NewInt(l.Val.I + 10)}
		}
		return nil
	})
	after := literals(q)
	if len(after) != len(before) || len(before) < 20 {
		t.Fatalf("%d literals before, %d after", len(before), len(after))
	}
	for i := range after {
		if after[i] != before[i]+10 {
			t.Errorf("literal %d: %d before, %d after one rewrite", i, before[i], after[i])
		}
	}
}

// literals lists every integer literal of the statement in WalkStatement
// order.
func literals(q *ast.Query) []int64 {
	var out []int64
	ast.WalkStatement(q, func(e ast.Expr) {
		if l, ok := e.(*ast.Literal); ok {
			out = append(out, l.Val.I)
		}
	})
	return out
}
