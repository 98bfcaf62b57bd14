// Package ast defines the SQL abstract syntax tree shared by the parser,
// the plaintext engine, and MONOMI's split client/server planner.
//
// The planner (Algorithm 1 in the paper) rewrites query trees: it clones the
// query, replaces expressions with encrypted-column references, strips
// clauses that must run on the client, and injects crypto UDF calls. The
// node types here therefore all support deep cloning and structural
// traversal.
package ast

import (
	"strconv"
	"strings"

	"repro/internal/value"
)

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpAnd BinOp = iota
	OpOr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
)

var binOpNames = [...]string{"AND", "OR", "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/"}

func (op BinOp) String() string { return binOpNames[op] }

// IsComparison reports whether op is one of = <> < <= > >=.
func (op BinOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// IsArith reports whether op is one of + - * /.
func (op BinOp) IsArith() bool { return op >= OpAdd }

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggSum AggFunc = iota
	AggCount
	AggAvg
	AggMin
	AggMax
)

var aggNames = [...]string{"SUM", "COUNT", "AVG", "MIN", "MAX"}

func (f AggFunc) String() string { return aggNames[f] }

// Expr is a SQL expression node.
type Expr interface {
	// Clone returns a deep copy of the expression.
	Clone() Expr
	// SQL renders the expression in the dialect the engine parses.
	SQL() string
	isExpr()
}

// ColumnRef names a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table  string // optional qualifier
	Column string
}

// Literal is a constant value.
type Literal struct {
	Val value.Value
	// Src, when non-empty, is the parameter slot this literal's value was
	// bound from — plan-cache provenance. A cached plan template replaces
	// Src-tagged literals with Param references so a later execution of the
	// same query shape can rebind fresh values; passes that combine or
	// absorb a literal (constant folding, design-item matching) emit
	// untagged results, which is what marks a shape uncacheable. Src never
	// affects SQL rendering or evaluation.
	Src string
	// EncBy, when non-nil, records the key item this literal was encrypted
	// under (an *enc.Item, typed opaquely — the enc package sits above ast).
	// Set together with Src by the planner's constant encryption so a plan
	// template knows how to re-encrypt the slot's future values.
	EncBy any
}

// Param is a named query parameter such as :1.
type Param struct {
	Name string
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op    BinOp
	Left  Expr
	Right Expr
}

// UnaryExpr is NOT e or -e.
type UnaryExpr struct {
	Neg bool // true: arithmetic negation; false: logical NOT
	E   Expr
}

// FuncCall invokes a scalar function or server-side UDF by name.
// Recognized names include EXTRACT_YEAR, SUBSTRING, and the crypto UDFs
// PAILLIER_SUM / GROUP_CONCAT installed on the untrusted server.
type FuncCall struct {
	Name string
	Args []Expr
}

// AggExpr is an aggregate invocation. Star marks COUNT(*).
type AggExpr struct {
	Func     AggFunc
	Arg      Expr // nil when Star
	Star     bool
	Distinct bool
}

// CaseExpr is CASE WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr // may be nil (NULL)
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

// InExpr is e [NOT] IN (list...) or e [NOT] IN (subquery).
type InExpr struct {
	E    Expr
	List []Expr // nil when Sub is set
	Sub  *Query
	Not  bool
}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Sub *Query
	Not bool
}

// SubqueryExpr is a scalar subquery used as a value.
type SubqueryExpr struct {
	Sub *Query
}

// BetweenExpr is e [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Not       bool
}

// LikeExpr is e [NOT] LIKE 'pattern' with % and _ wildcards.
type LikeExpr struct {
	E       Expr
	Pattern string
	Not     bool
}

// IsNullExpr is e IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

// IntervalExpr is INTERVAL 'n' unit, combined with dates via + and -.
type IntervalExpr struct {
	N    int64
	Unit string // "year" | "month" | "day"
}

func (*ColumnRef) isExpr()    {}
func (*Literal) isExpr()      {}
func (*Param) isExpr()        {}
func (*BinaryExpr) isExpr()   {}
func (*UnaryExpr) isExpr()    {}
func (*FuncCall) isExpr()     {}
func (*AggExpr) isExpr()      {}
func (*CaseExpr) isExpr()     {}
func (*InExpr) isExpr()       {}
func (*ExistsExpr) isExpr()   {}
func (*SubqueryExpr) isExpr() {}
func (*BetweenExpr) isExpr()  {}
func (*LikeExpr) isExpr()     {}
func (*IsNullExpr) isExpr()   {}
func (*IntervalExpr) isExpr() {}

// SelectItem is one projection with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// TableRef is one FROM entry: a base table or a derived subquery.
type TableRef struct {
	Name  string // base table name; empty when Sub != nil
	Alias string
	Sub   *Query
}

// RefName returns the name the table is addressed by in the query scope.
func (t *TableRef) RefName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Query is a SELECT statement. Joins are expressed TPC-H style: multiple
// FROM entries with equality predicates in WHERE.
type Query struct {
	Distinct    bool
	Projections []SelectItem
	From        []TableRef
	Where       Expr // nil when absent; conjunctions are BinaryExpr{OpAnd}
	GroupBy     []Expr
	Having      Expr
	OrderBy     []OrderItem
	Limit       int // -1 when absent
}

// NewQuery returns an empty query with Limit unset.
func NewQuery() *Query { return &Query{Limit: -1} }

// Clone deep-copies the query.
func (q *Query) Clone() *Query {
	if q == nil {
		return nil
	}
	c := &Query{
		Distinct: q.Distinct,
		Limit:    q.Limit,
	}
	for _, p := range q.Projections {
		c.Projections = append(c.Projections, SelectItem{Expr: cloneExpr(p.Expr), Alias: p.Alias})
	}
	for _, f := range q.From {
		c.From = append(c.From, TableRef{Name: f.Name, Alias: f.Alias, Sub: f.Sub.Clone()})
	}
	c.Where = cloneExpr(q.Where)
	for _, g := range q.GroupBy {
		c.GroupBy = append(c.GroupBy, cloneExpr(g))
	}
	c.Having = cloneExpr(q.Having)
	for _, o := range q.OrderBy {
		c.OrderBy = append(c.OrderBy, OrderItem{Expr: cloneExpr(o.Expr), Desc: o.Desc})
	}
	return c
}

func cloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	return e.Clone()
}

// Clone implementations.

// Clone returns a copy of the column reference.
func (e *ColumnRef) Clone() Expr { c := *e; return &c }

// Clone returns a copy of the literal.
func (e *Literal) Clone() Expr { c := *e; return &c }

// Clone returns a copy of the parameter.
func (e *Param) Clone() Expr { c := *e; return &c }

// Clone returns a deep copy of the binary expression.
func (e *BinaryExpr) Clone() Expr {
	return &BinaryExpr{Op: e.Op, Left: e.Left.Clone(), Right: e.Right.Clone()}
}

// Clone returns a deep copy of the unary expression.
func (e *UnaryExpr) Clone() Expr { return &UnaryExpr{Neg: e.Neg, E: e.E.Clone()} }

// Clone returns a deep copy of the function call.
func (e *FuncCall) Clone() Expr {
	c := &FuncCall{Name: e.Name}
	for _, a := range e.Args {
		c.Args = append(c.Args, a.Clone())
	}
	return c
}

// Clone returns a deep copy of the aggregate.
func (e *AggExpr) Clone() Expr {
	c := &AggExpr{Func: e.Func, Star: e.Star, Distinct: e.Distinct}
	if e.Arg != nil {
		c.Arg = e.Arg.Clone()
	}
	return c
}

// Clone returns a deep copy of the CASE expression.
func (e *CaseExpr) Clone() Expr {
	c := &CaseExpr{}
	for _, w := range e.Whens {
		c.Whens = append(c.Whens, CaseWhen{Cond: w.Cond.Clone(), Then: w.Then.Clone()})
	}
	if e.Else != nil {
		c.Else = e.Else.Clone()
	}
	return c
}

// Clone returns a deep copy of the IN expression.
func (e *InExpr) Clone() Expr {
	c := &InExpr{E: e.E.Clone(), Not: e.Not, Sub: e.Sub.Clone()}
	for _, l := range e.List {
		c.List = append(c.List, l.Clone())
	}
	return c
}

// Clone returns a deep copy of the EXISTS expression.
func (e *ExistsExpr) Clone() Expr { return &ExistsExpr{Sub: e.Sub.Clone(), Not: e.Not} }

// Clone returns a deep copy of the scalar subquery.
func (e *SubqueryExpr) Clone() Expr { return &SubqueryExpr{Sub: e.Sub.Clone()} }

// Clone returns a deep copy of the BETWEEN expression.
func (e *BetweenExpr) Clone() Expr {
	return &BetweenExpr{E: e.E.Clone(), Lo: e.Lo.Clone(), Hi: e.Hi.Clone(), Not: e.Not}
}

// Clone returns a deep copy of the LIKE expression.
func (e *LikeExpr) Clone() Expr { return &LikeExpr{E: e.E.Clone(), Pattern: e.Pattern, Not: e.Not} }

// Clone returns a deep copy of the IS NULL expression.
func (e *IsNullExpr) Clone() Expr { return &IsNullExpr{E: e.E.Clone(), Not: e.Not} }

// Clone returns a copy of the interval literal.
func (e *IntervalExpr) Clone() Expr { c := *e; return &c }

// SQL rendering. The output parses back through the project's parser, which
// the planner relies on when materializing RemoteSQL text for logs.

// SQL renders the column reference.
func (e *ColumnRef) SQL() string {
	if e.Table != "" {
		return e.Table + "." + e.Column
	}
	return e.Column
}

// SQL renders the literal.
func (e *Literal) SQL() string {
	switch e.Val.K {
	case value.Str:
		return "'" + strings.ReplaceAll(e.Val.S, "'", "''") + "'"
	case value.Date:
		return "date '" + value.FormatDate(e.Val.I) + "'"
	case value.Bytes:
		return e.Val.String()
	}
	return e.Val.String()
}

// SQL renders the parameter.
func (e *Param) SQL() string { return ":" + e.Name }

// SQL renders the binary expression with explicit parentheses.
func (e *BinaryExpr) SQL() string {
	return "(" + e.Left.SQL() + " " + e.Op.String() + " " + e.Right.SQL() + ")"
}

// SQL renders the unary expression.
func (e *UnaryExpr) SQL() string {
	if e.Neg {
		return "(-" + e.E.SQL() + ")"
	}
	return "(NOT " + e.E.SQL() + ")"
}

// SQL renders the function call.
func (e *FuncCall) SQL() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.SQL()
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}

// SQL renders the aggregate.
func (e *AggExpr) SQL() string {
	if e.Star {
		return "COUNT(*)"
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return e.Func.String() + "(" + d + e.Arg.SQL() + ")"
}

// SQL renders the CASE expression.
func (e *CaseExpr) SQL() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range e.Whens {
		b.WriteString(" WHEN " + w.Cond.SQL() + " THEN " + w.Then.SQL())
	}
	if e.Else != nil {
		b.WriteString(" ELSE " + e.Else.SQL())
	}
	b.WriteString(" END")
	return b.String()
}

// SQL renders the IN expression.
func (e *InExpr) SQL() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	if e.Sub != nil {
		return e.E.SQL() + not + " IN (" + e.Sub.SQL() + ")"
	}
	items := make([]string, len(e.List))
	for i, l := range e.List {
		items[i] = l.SQL()
	}
	return e.E.SQL() + not + " IN (" + strings.Join(items, ", ") + ")"
}

// SQL renders the EXISTS expression.
func (e *ExistsExpr) SQL() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return not + "EXISTS (" + e.Sub.SQL() + ")"
}

// SQL renders the scalar subquery.
func (e *SubqueryExpr) SQL() string { return "(" + e.Sub.SQL() + ")" }

// SQL renders the BETWEEN expression.
func (e *BetweenExpr) SQL() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	return e.E.SQL() + not + " BETWEEN " + e.Lo.SQL() + " AND " + e.Hi.SQL()
}

// SQL renders the LIKE expression.
func (e *LikeExpr) SQL() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	return e.E.SQL() + not + " LIKE '" + e.Pattern + "'"
}

// SQL renders the IS NULL expression.
func (e *IsNullExpr) SQL() string {
	if e.Not {
		return e.E.SQL() + " IS NOT NULL"
	}
	return e.E.SQL() + " IS NULL"
}

// SQL renders the interval literal.
func (e *IntervalExpr) SQL() string {
	return "interval '" + strconv.FormatInt(e.N, 10) + "' " + e.Unit
}

// SQL renders the full query.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, p := range q.Projections {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.Expr.SQL())
		if p.Alias != "" {
			b.WriteString(" AS " + p.Alias)
		}
	}
	b.WriteString(" FROM ")
	for i, f := range q.From {
		if i > 0 {
			b.WriteString(", ")
		}
		if f.Sub != nil {
			b.WriteString("(" + f.Sub.SQL() + ")")
		} else {
			b.WriteString(f.Name)
		}
		if f.Alias != "" && f.Alias != f.Name {
			b.WriteString(" " + f.Alias)
		}
	}
	if q.Where != nil {
		b.WriteString(" WHERE " + q.Where.SQL())
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.SQL())
		}
	}
	if q.Having != nil {
		b.WriteString(" HAVING " + q.Having.SQL())
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range q.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.SQL())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if q.Limit >= 0 {
		b.WriteString(" LIMIT " + strconv.Itoa(q.Limit))
	}
	return b.String()
}
