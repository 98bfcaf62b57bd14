package planner

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/enc"
	"repro/internal/storage"
	"repro/internal/value"
)

// StripEncSuffix removes a trailing encrypted-column suffix, reporting
// whether one was present.
func StripEncSuffix(col string) (string, bool) {
	for _, suf := range []string{"_det", "_ope", "_rnd", "_srch"} {
		if len(col) > len(suf) && col[len(col)-len(suf):] == suf {
			return col[:len(col)-len(suf)], true
		}
	}
	return col, false
}

// Context is everything the planner needs: the plaintext catalog (schema
// and data statistics), the physical design (available encrypted items), and
// the key store (the planner runs inside the trusted client library and
// encrypts query constants).
type Context struct {
	// Cat is the plaintext catalog. Names resolve against its schema, and
	// the cost model and the designer read its live insert-time statistics
	// (Rows, Col); nothing copies them. It is read-only once Encrypt has
	// run, as the engine that answers plaintext queries over it already
	// requires.
	Cat    *storage.Catalog
	Design *enc.Design
	Keys   *enc.KeyStore
	Cost   *CostModel
	// JoinGroups maps "table.column" to the shared-DET-key group that
	// makes equi-joins on that column server-evaluable (built by the
	// designer from the workload's join predicates).
	JoinGroups map[string]string
	// EnablePrefilter turns on §5.4 conservative pre-filtering. It is one
	// of the cumulative techniques Figure 5 ("+Other") measures, so it is
	// toggleable independently of the design.
	EnablePrefilter bool
	// Indexes tells the cost model the untrusted server's tables declare
	// secondary indexes over DET/OPE columns (enc.DeclareIndexes), which its
	// engine then reads: costPart compares an index probe against the full
	// scan and annotates the chosen access path (see access.go). Default
	// false so designer and experiment cost figures are unchanged unless
	// the execution layer actually uses the indexes (deploy.Design sets it
	// from deploy.Spec.Indexes).
	Indexes bool
}

// WithDesign returns a shallow copy of the context planning against a
// different (trial) design.
func (ctx *Context) WithDesign(d *enc.Design) *Context {
	c := *ctx
	c.Design = d
	return &c
}

// NewContext builds a planning context over the plaintext catalog.
func NewContext(cat *storage.Catalog, design *enc.Design, keys *enc.KeyStore, cost *CostModel) *Context {
	return &Context{Cat: cat, Design: design, Keys: keys, Cost: cost, JoinGroups: make(map[string]string)}
}

// Rows is a plaintext table's row count, 0 for an unknown table.
func (ctx *Context) Rows(table string) int64 {
	t, err := ctx.Cat.Table(table)
	if err != nil {
		return 0
	}
	return int64(t.NumRows())
}

// firstCol names a plaintext table's first column, "" when it has none: the
// column a fetch reads when it only needs to count rows.
func (ctx *Context) firstCol(table string) string {
	if t, err := ctx.Cat.Table(table); err == nil && len(t.Schema.Cols) > 0 {
		return t.Schema.Cols[0].Name
	}
	return ""
}

// ColStat is what the cost model reads of one plaintext column's
// statistics (storage.ColMeta).
type ColStat struct {
	NDV      int64 // distinct values: at least 1 for a known column
	Min, Max int64 // numeric bounds; 0 when the column holds no number
	AvgLen   int   // encoded bytes per row
}

// Col returns a plaintext column's statistics, all zero for an unknown table
// or column: its NDV is then unknown, and an equality on it keeps every row
// (ast.Selectivity).
func (ctx *Context) Col(table, col string) ColStat {
	t, err := ctx.Cat.Table(table)
	if err != nil {
		return ColStat{}
	}
	m, ok := t.Meta(col)
	if !ok {
		return ColStat{}
	}
	cs := ColStat{NDV: max(m.NDV, 1)}
	if m.HasNum {
		cs.Min, cs.Max = m.Min, m.Max
	}
	if n := t.NumRows(); n > 0 {
		cs.AvgLen = int(m.TotalLen / int64(n))
	}
	return cs
}

// scope is one block's names as the planner sees them: the resolver's
// (ast.Scope) over the plaintext catalog. A name binds to a FROM entry
// (*ast.TableRef, bind); a base table's entry gives its columns their kinds
// (kindOf).
type scope = ast.Scope

// encTables is the plaintext catalog as the cost model reads RemoteSQL
// through it: an encrypted column's name (x_det, x_ope, ...) that is no
// column of its own also stands for its base column, so RemoteSQL reads
// plaintext statistics. A user statement resolves against the catalog
// itself, where a name must be a schema column exactly, as in the engine.
type encTables struct{ *storage.Catalog }

// HasColumn reports whether the named table has column col or its base.
func (t encTables) HasColumn(table, col string) (bool, error) {
	if has, err := t.Catalog.HasColumn(table, col); has || err != nil {
		return has, err
	}
	base, _ := StripEncSuffix(col)
	return t.Catalog.HasColumn(table, base)
}

// newScope builds the scope of block q, chained to parent (nil for a block
// that sees no enclosing one).
func (ctx *Context) newScope(q *ast.Query, parent *scope) (*scope, error) {
	for _, f := range q.From {
		if _, err := ctx.Cat.Table(f.Name); f.Sub == nil && err != nil {
			return nil, fmt.Errorf("planner: unknown table %s", f.Name)
		}
	}
	return &scope{Block: q, Parent: parent, Cat: ctx.Cat}, nil
}

// bind returns the FROM entry c binds to through s's chain, nil when it
// binds nowhere or does not resolve.
func bind(s *scope, c *ast.ColumnRef) *ast.TableRef {
	b, err := s.Resolve(c)
	if err != nil {
		return nil
	}
	return entry(b)
}

// entry is the FROM entry a binding names (nil for none or an alias).
func entry(b ast.Binding) *ast.TableRef {
	if b.Block == nil || b.Entry < 0 {
		return nil
	}
	return &b.Block.From[b.Entry]
}

// kindOf returns the plaintext kind of a column reference: its base table
// column's, Int for a derived table's, Null when it does not bind. A name
// carrying an encrypted-column suffix that is no column of its own has its
// base column's kind (encTables).
func (ctx *Context) kindOf(s *scope, c *ast.ColumnRef) value.Kind {
	switch f := bind(s, c); {
	case f == nil:
		return value.Null
	case f.Sub != nil:
		return value.Int
	default:
		t, err := ctx.Cat.Table(f.Name)
		if err != nil {
			return value.Null
		}
		base, _ := StripEncSuffix(c.Column)
		for _, name := range [2]string{c.Column, base} {
			if ci := t.Schema.ColIndex(name); ci >= 0 {
				return t.Schema.Cols[ci].Type.Kind()
			}
		}
		return value.Null
	}
}

// stripQualifiers clones e with table qualifiers removed, the canonical
// form used for matching design items (items are per-table).
func stripQualifiers(e ast.Expr) ast.Expr {
	return ast.RewriteExpr(e.Clone(), func(x ast.Expr) ast.Expr {
		if c, ok := x.(*ast.ColumnRef); ok && c.Table != "" {
			return &ast.ColumnRef{Column: c.Column}
		}
		return nil
	})
}

// findItem looks up a design item for (the unqualified form of) expr on the
// given table.
func (ctx *Context) findItem(table string, e ast.Expr, scheme enc.Scheme) (*enc.Item, bool) {
	return ctx.Design.Find(table, stripQualifiers(e).SQL(), scheme)
}

// IsUncorrelated reports whether every column a subquery references
// resolves within its own FROM tables.
func IsUncorrelated(ctx *Context, sub *ast.Query) bool {
	return !ast.Correlated(sub, ctx.Cat)
}
