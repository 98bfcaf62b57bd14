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

// Kind returns a column's plaintext value kind, or Null if absent. Names
// carrying encrypted-column suffixes (x_det, x_ope, ...) resolve to their
// base column so the cost model can resolve RemoteSQL queries against
// plaintext statistics; plaintext queries never use such names.
func (ti *TableInfo) Kind(col string) value.Kind {
	for _, c := range ti.Cols {
		if c.Name == col {
			return colKind(c.Type)
		}
	}
	if base, ok := StripEncSuffix(col); ok {
		for _, c := range ti.Cols {
			if c.Name == base {
				return colKind(c.Type)
			}
		}
	}
	return value.Null
}

// Has reports whether the table has the named column.
func (ti *TableInfo) Has(col string) bool { return ti.Kind(col) != value.Null }

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
	// Indexes tells the cost model the untrusted server maintains
	// secondary indexes over DET/OPE columns: costPart then compares an
	// index probe against the full scan and annotates the chosen access
	// path (see access.go). Default false so designer and experiment cost
	// figures are unchanged unless the execution layer actually has the
	// indexes (monomi.Options.Indexes wires it up).
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

// scope resolves column references within one query block: alias -> table.
// parent chains to the enclosing block for correlated subqueries.
type scope struct {
	ctx     *Context
	entries []scopeEntry
	parent  *scope
}

type scopeEntry struct {
	ref   string // alias or table name used in the query
	table string // underlying base table ("" for derived tables)
	info  *TableInfo
}

// newScope builds the resolution scope for a query's FROM list. Derived
// tables resolve to a synthetic TableInfo built from their projections.
func (ctx *Context) newScope(q *ast.Query) (*scope, error) {
	s := &scope{ctx: ctx}
	for i := range q.From {
		f := &q.From[i]
		if f.Sub != nil {
			info := &TableInfo{Name: f.RefName()}
			for _, p := range f.Sub.Projections {
				name := p.Alias
				if name == "" {
					if cr, ok := p.Expr.(*ast.ColumnRef); ok {
						name = cr.Column
					}
				}
				info.Cols = append(info.Cols, storage.Column{Name: name, Type: storage.TInt})
			}
			s.entries = append(s.entries, scopeEntry{ref: f.RefName(), info: info})
			continue
		}
		info, ok := ctx.Tables[f.Name]
		if !ok {
			return nil, fmt.Errorf("planner: unknown table %s", f.Name)
		}
		s.entries = append(s.entries, scopeEntry{ref: f.RefName(), table: f.Name, info: info})
	}
	return s, nil
}

// blockScopes calls fn for every block of q, in ast.EachBlock order, with
// its scope chained over its enclosing block's (outer for q itself). A block
// whose FROM list does not resolve gets a nil scope, and the blocks nested in
// it are skipped.
func (ctx *Context) blockScopes(q *ast.Query, outer *scope, fn func(b *ast.Query, s *scope)) {
	scopes := make(map[*ast.Query]*scope)
	ast.EachBlock(q, func(b, up *ast.Query) {
		parent := outer
		if up != nil {
			if parent = scopes[up]; parent == nil {
				return // nested in a block that did not resolve
			}
		}
		inner, err := ctx.newScope(b)
		if err != nil {
			fn(b, nil)
			return
		}
		s := inner.chain(parent)
		scopes[b] = s
		fn(b, s)
	})
}

// kindOf returns the plaintext kind of a column reference.
func (s *scope) kindOf(c *ast.ColumnRef) value.Kind {
	if c.Table != "" {
		for _, e := range s.entries {
			if e.ref == c.Table {
				return e.info.Kind(c.Column)
			}
		}
		return value.Null
	}
	for _, e := range s.entries {
		if k := e.info.Kind(c.Column); k != value.Null {
			return k
		}
	}
	return value.Null
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
	free := false
	collectQueryRefs(ctx, sub, nil, func(en *scopeEntry, _ string) {
		if en == nil {
			free = true
		}
	})
	return !free
}
