package ast

import (
	"errors"
	"fmt"
)

// Name resolution: which FROM entry a column name means, written once for
// the planner, the key-filter pass and the engine.
//
//   - A block's scope is its FROM entries, chained outward to the enclosing
//     blocks'. A base table's columns come from the caller's Catalog, a
//     derived table's are its SELECT list's OutputNames. A derived table's
//     scope chains to its block's parent, so it cannot see its siblings.
//   - A name binds to the innermost block that has it; a qualified one to
//     the innermost block with a FROM entry of that name, which must have
//     the column. Two entries of one block with the name (or the
//     qualifier), or two outputs of one derived table, are
//     ErrAmbiguousColumn; a name that binds nowhere is ErrUnknownColumn.
//   - In HAVING and ORDER BY a bare name that is a SELECT-list alias of the
//     block means the aliased expression; elsewhere an alias is not a name.
//     `*` and COUNT(*) bind nothing.

// Resolution errors, matched with errors.Is.
var (
	ErrUnknownColumn   = errors.New("unknown column")
	ErrAmbiguousColumn = errors.New("ambiguous column")
)

// A Catalog tells the resolver the columns of base tables.
type Catalog interface {
	// HasColumn reports whether base table table has column col, and an
	// error when no such table exists (HasColumn(t, "") checks just that).
	HasColumn(table, col string) (bool, error)
}

// Scope is the names one block sees: its FROM entries, then Parent's.
type Scope struct {
	Block  *Query
	Parent *Scope
	Cat    Catalog
}

// Binding is what a column reference means: Block.From[Entry]'s column, or
// — Entry -1 — the SELECT-list expression Alias of Block. Block is nil for
// a name no scope of the chain has.
type Binding struct {
	Block *Query
	Entry int
	Alias Expr
}

// Resolve binds c, a column reference of s's block, to a FROM entry of s or
// of its parents (no alias: Bind applies the alias rule before it asks).
func (s *Scope) Resolve(c *ColumnRef) (Binding, error) {
	for cur := s; cur != nil; cur = cur.Parent {
		from, entry, n, named := cur.Block.From, -1, 0, 0
		for i := range from {
			if c.Table != "" && from[i].RefName() != c.Table {
				continue
			}
			named++
			k, err := cur.count(&from[i], c.Column)
			if err != nil {
				return Binding{}, err
			}
			if k > 0 {
				entry, n = i, n+k
			}
		}
		switch {
		case n > 1 || (c.Table != "" && named > 1):
			return Binding{}, fmt.Errorf("%w %s", ErrAmbiguousColumn, c.SQL())
		case n == 1:
			return Binding{Block: cur.Block, Entry: entry}, nil
		case c.Table != "" && named == 1:
			return Binding{}, fmt.Errorf("%w %s", ErrUnknownColumn, c.SQL())
		}
	}
	return Binding{}, nil
}

// count is how many columns of FROM entry f are named col.
func (s *Scope) count(f *TableRef, col string) (int, error) {
	if f.Sub == nil {
		has, err := s.Cat.HasColumn(f.Name, col)
		if has {
			return 1, err
		}
		return 0, err
	}
	n := 0
	for _, p := range f.Sub.Projections {
		if OutputName(p) == col {
			n++
		}
	}
	return n, nil
}

// OutputName is the name a SELECT item's column is known by outside its
// block: its alias, else a bare column's name, else its SQL text.
func OutputName(p SelectItem) string {
	if p.Alias != "" {
		return p.Alias
	}
	if cr, ok := p.Expr.(*ColumnRef); ok {
		return cr.Column
	}
	return p.Expr.SQL()
}

// Alias returns the SELECT-list expression of block b that c, a name in b's
// HAVING or ORDER BY, means when it is an alias, or nil. Two items with the
// alias and different expressions make it ambiguous.
func Alias(b *Query, c *ColumnRef) (Expr, error) {
	var e Expr
	for _, p := range b.Projections {
		if c.Table != "" || p.Alias != c.Column {
			continue
		}
		if e != nil && e.SQL() != p.Expr.SQL() {
			return nil, fmt.Errorf("%w %s (two SELECT items)", ErrAmbiguousColumn, c.Column)
		}
		e = p.Expr
	}
	return e, nil
}

// WithAliases returns block b with every name its HAVING and ORDER BY use as
// a SELECT-list alias replaced by the aliased expression: a shallow copy
// whose two clauses share those expressions — a subquery in one stays the
// same node — or b itself when they name no alias.
func WithAliases(b *Query) (*Query, error) {
	var err error
	changed := false
	subst := func(x Expr) Expr {
		if cr, ok := x.(*ColumnRef); ok && err == nil {
			var a Expr
			if a, err = Alias(b, cr); a != nil {
				changed = true
				return a
			}
		}
		return nil
	}
	out := *b
	out.Having = RewriteExpr(b.Having, subst)
	out.OrderBy = make([]OrderItem, len(b.OrderBy))
	for i, o := range b.OrderBy {
		out.OrderBy[i] = OrderItem{Expr: RewriteExpr(o.Expr, subst), Desc: o.Desc}
	}
	if !changed {
		return b, err
	}
	return &out, err
}

// Bind resolves every column reference of block q and of the blocks nested
// in it (EachBlock order), q's scope chained to outer, and calls fn with
// each. A reference no scope has gets a Binding with a nil Block: fn decides
// whether that is an error. The first error stops the walk. Every base table
// is looked up, so an unknown one fails even where no name is resolved.
func Bind(q *Query, outer *Scope, cat Catalog, fn func(c *ColumnRef, b Binding) error) error {
	root := Scope{Block: q, Parent: outer, Cat: cat}
	var scopes map[*Query]*Scope // nested blocks' scopes, made with the first of them
	var err error
	EachBlock(q, func(b, up *Query) {
		if err != nil {
			return
		}
		s := &root
		if up != nil {
			if scopes == nil {
				r := root
				scopes = map[*Query]*Scope{q: &r}
			}
			parent := scopes[up]
			for i := range up.From {
				if up.From[i].Sub == b { // a derived table
					parent = parent.Parent
				}
			}
			nested := &Scope{Block: b, Parent: parent, Cat: cat}
			scopes[b], s = nested, nested
		}
		err = s.bindBlock(fn)
	})
	return err
}

// bindBlock checks the block's base tables and binds its own clauses in
// EachExpr order: the SELECT list, WHERE and GROUP BY (plain of them), then
// HAVING and ORDER BY, alias first.
func (s *Scope) bindBlock(fn func(*ColumnRef, Binding) error) (err error) {
	q := s.Block
	for i := 0; i < len(q.From) && err == nil; i++ {
		if q.From[i].Sub == nil {
			_, err = s.Cat.HasColumn(q.From[i].Name, "")
		}
	}
	plain := len(q.Projections) + len(q.GroupBy)
	if q.Where != nil {
		plain++
	}
	q.EachExpr(func(e Expr) {
		if err == nil {
			err = s.bindRefs(e, plain <= 0, fn)
		}
		plain--
	})
	return err
}

// bindRefs binds the column references of e outside its subqueries, aliases
// first when aliases is set.
func (s *Scope) bindRefs(e Expr, aliases bool, fn func(*ColumnRef, Binding) error) (err error) {
	Walk(e, func(x Expr) {
		c, ok := x.(*ColumnRef)
		if !ok || c.Column == "*" || err != nil {
			return
		}
		var b Binding
		if aliases {
			if b.Alias, err = Alias(s.Block, c); b.Alias != nil {
				b.Block, b.Entry = s.Block, -1
			}
		}
		if b.Alias == nil && err == nil {
			b, err = s.Resolve(c)
		}
		if err == nil {
			err = fn(c, b)
		}
	})
	return err
}

// BindExpr is Bind for one expression of s's block: its own references
// (no alias), then every block nested in it with s as the outer scope.
func (s *Scope) BindExpr(e Expr, fn func(c *ColumnRef, b Binding) error) error {
	err := s.bindRefs(e, false, fn)
	for _, sub := range Subqueries(e) {
		if err == nil {
			err = Bind(sub, s, s.Cat, fn)
		}
	}
	return err
}

// Resolve checks that every name of statement q binds, exactly once.
func Resolve(q *Query, cat Catalog) error { return Bind(q, nil, cat, unbound) }

// Correlated reports whether block q names, itself or in a block nested in
// it, a column that binds outside q: q alone does not resolve. A name that
// fails to resolve at all counts, so the answer is conservative.
func Correlated(q *Query, cat Catalog) bool { return Resolve(q, cat) != nil }

// Outside reports whether expression e of s's block names, itself or in a
// block nested in it, a column that binds on no scope of s's chain.
func (s *Scope) Outside(e Expr) bool { return s.BindExpr(e, unbound) != nil }

func unbound(c *ColumnRef, b Binding) error {
	if b.Block == nil {
		return fmt.Errorf("%w %s", ErrUnknownColumn, c.SQL())
	}
	return nil
}
