package planner

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/enc"
	"repro/internal/storage"
	"repro/internal/value"
)

// TableInfo is the plaintext schema of one table as the planner sees it.
type TableInfo struct {
	Name string
	Cols []storage.Column
}

// Kind returns a column's plaintext value kind, or Null if absent. A name
// carrying an encrypted-column suffix (x_det, x_ope, ...) that is no column
// of its own has its base column's kind, so the cost model can read
// RemoteSQL against plaintext statistics (encTables).
func (ti *TableInfo) Kind(col string) value.Kind {
	base, _ := StripEncSuffix(col)
	for _, name := range [2]string{col, base} {
		for _, c := range ti.Cols {
			if c.Name == name {
				return c.Type.Kind()
			}
		}
	}
	return value.Null
}

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

// Context is everything the planner needs: the plaintext schema, data
// statistics, the physical design (available encrypted items), and the key
// store (the planner runs inside the trusted client library and encrypts
// query constants).
type Context struct {
	Tables map[string]*TableInfo
	Stats  *Stats
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

// NewContext builds a planning context from the plaintext catalog.
func NewContext(cat *storage.Catalog, design *enc.Design, keys *enc.KeyStore, cost *CostModel) *Context {
	ctx := &Context{
		Tables:     make(map[string]*TableInfo),
		Stats:      CollectStats(cat),
		Design:     design,
		Keys:       keys,
		Cost:       cost,
		JoinGroups: make(map[string]string),
	}
	for _, name := range cat.Names() {
		t, err := cat.Table(name)
		if err != nil {
			continue
		}
		ctx.Tables[name] = &TableInfo{Name: name, Cols: t.Schema.Cols}
	}
	return ctx
}

// scope is one block's names as the planner sees them: the resolver's
// (ast.Scope) over the plaintext schema. A name binds to a FROM entry
// (*ast.TableRef, bind); a base table's entry gives its columns their kinds
// (Context.Tables, kindOf).
type scope = ast.Scope

// tables is the plaintext schema as the name resolver sees it for a user
// statement: a name must be a schema column exactly, as in the engine.
type tables map[string]*TableInfo

// HasColumn reports whether the named table has column col.
func (t tables) HasColumn(table, col string) (bool, error) {
	info, ok := t[table]
	if !ok {
		return false, fmt.Errorf("planner: unknown table %s", table)
	}
	for _, c := range info.Cols {
		if c.Name == col {
			return true, nil
		}
	}
	return false, nil
}

// encTables is tables as the cost model reads RemoteSQL through it: an
// encrypted column's name also stands for its base column (TableInfo.Kind).
type encTables map[string]*TableInfo

// HasColumn reports whether the named table has column col or its base.
func (t encTables) HasColumn(table, col string) (bool, error) {
	if _, err := tables(t).HasColumn(table, ""); err != nil {
		return false, err
	}
	return t[table].Kind(col) != value.Null, nil
}

// newScope builds the scope of block q, chained to parent (nil for a block
// that sees no enclosing one).
func (ctx *Context) newScope(q *ast.Query, parent *scope) (*scope, error) {
	for _, f := range q.From {
		if _, ok := ctx.Tables[f.Name]; f.Sub == nil && !ok {
			return nil, fmt.Errorf("planner: unknown table %s", f.Name)
		}
	}
	return &scope{Block: q, Parent: parent, Cat: tables(ctx.Tables)}, nil
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
// column's, Int for a derived table's, Null when it does not bind.
func (ctx *Context) kindOf(s *scope, c *ast.ColumnRef) value.Kind {
	switch f := bind(s, c); {
	case f == nil:
		return value.Null
	case f.Sub != nil:
		return value.Int
	default:
		return ctx.Tables[f.Name].Kind(c.Column)
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
	return !ast.Correlated(sub, tables(ctx.Tables))
}
