package planner

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/enc"
)

// Key filters: §8.2's multi-round execution applied to the joins the client
// runs. When the residual reads a remote part's rows only through an
// equality between one of its key columns p and a column s of another temp
// table — `p IN (SELECT s FROM S …)`, a correlated `p = outer.s` in the
// subquery that reads the part, or an equi-join `p = s` between two temp
// tables — a row whose p equals no s is a row the residual never uses. The
// client then materializes S first and sends its distinct s values,
// encrypted under p's DET item, as an IN-list on the part's RemoteSQL, so the
// server ships only rows the residual can use (Q18: one order's lineitems
// instead of the whole customer ⋈ orders ⋈ lineitem join). The residual keeps
// its own predicate, so a filter removes only rows it would have discarded.

// KeyFilter restricts a remote part to the rows whose output Column holds a
// value of Source.SourceColumn. Target is the part's RemoteSQL expression for
// Column — a DET column — and Item the DET item its keys encrypt under. NDV
// estimates the column's distinct values (0 = unknown), so the runner can
// tell how much of the part a key set leaves out.
type KeyFilter struct {
	Column       string
	Source       string
	SourceColumn string
	Target       ast.Expr
	Item         *enc.Item
	NDV          float64
}

// AttachKeyFilters attaches a key filter to every remote part of p's tree
// that qualifies, at most one per part and never in a cycle (a part's
// source must be able to run before it). It changes no query, cost or item
// of the plan: the client applies a filter when it runs the part.
func (ctx *Context) AttachKeyFilters(p *Plan) {
	for _, sp := range p.Subplans {
		ctx.AttachKeyFilters(sp.Plan)
	}
	if p.Local == nil {
		return
	}
	lv := newFilterLevel(ctx, p)
	// A residual that does not resolve gets no filter; the engine reports it.
	if err := ast.Bind(p.Local, nil, lv, func(c *ast.ColumnRef, b ast.Binding) error {
		lv.bound[c] = b
		return nil
	}); err != nil {
		return
	}
	ast.EachBlock(p.Local, func(b, _ *ast.Query) {
		for i := range b.From {
			if f := &b.From[i]; f.Sub == nil {
				lv.reads[f.Name]++
			}
		}
	})
	ast.EachBlock(p.Local, func(b, _ *ast.Query) {
		for _, conj := range ast.Conjuncts(b.Where) {
			lv.consider(b, conj)
		}
	})
}

// filterTemp is one temp table of a plan level: its columns and, when it is a
// remote part's output as the server returns it, that part.
type filterTemp struct {
	cols map[string]bool
	part *RemotePart
}

// filterLevel is the key-filter analysis of one plan level: the temp tables
// its residual reads, how many FROM entries read each, and what each column
// reference of the residual binds to.
type filterLevel struct {
	ctx   *Context
	temps map[string]*filterTemp
	reads map[string]int
	bound map[*ast.ColumnRef]ast.Binding
}

func newFilterLevel(ctx *Context, p *Plan) *filterLevel {
	lv := &filterLevel{
		ctx:   ctx,
		temps: make(map[string]*filterTemp),
		reads: make(map[string]int),
		bound: make(map[*ast.ColumnRef]ast.Binding),
	}
	add := func(name string, sub *Plan) {
		t := &filterTemp{cols: make(map[string]bool)}
		for _, c := range planOutputCols(sub) {
			t.cols[c] = true
		}
		if sub.Local == nil {
			t.part = sub.Remote
		}
		lv.temps[name] = t
	}
	for _, sp := range p.Subplans {
		add(sp.Name, sp.Plan)
	}
	if p.Remote != nil {
		add(p.Remote.Name, &Plan{Remote: p.Remote})
	}
	return lv
}

// HasColumn reports whether the level's temp table has column col: the
// residual's names resolve against the level's temp tables.
func (lv *filterLevel) HasColumn(table, col string) (bool, error) {
	t := lv.temps[table]
	if t == nil {
		return false, fmt.Errorf("planner: no temp table %s", table)
	}
	return t.cols[col], nil
}

// consider attaches the filter one WHERE conjunct of block b implies, if any.
func (lv *filterLevel) consider(b *ast.Query, conj ast.Expr) {
	switch x := conj.(type) {
	case *ast.InExpr:
		p, ok := x.E.(*ast.ColumnRef)
		if x.Not || x.Sub == nil || !ok || len(x.Sub.Projections) != 1 {
			return
		}
		s, ok := x.Sub.Projections[0].Expr.(*ast.ColumnRef)
		if !ok {
			return
		}
		if src, blk := lv.resolve(s); blk == x.Sub && src != "" {
			lv.attach(b, p, src, s.Column)
		}
	case *ast.BinaryExpr:
		l, lok := x.Left.(*ast.ColumnRef)
		r, rok := x.Right.(*ast.ColumnRef)
		if x.Op != ast.OpEq || !lok || !rok {
			return
		}
		for _, pair := range [2][2]*ast.ColumnRef{{l, r}, {r, l}} {
			if src, _ := lv.resolve(pair[1]); src != "" {
				lv.attach(b, pair[0], src, pair[1].Column)
			}
		}
	}
}

// attach filters the temp table p names in block b by src.srcCol, when b's
// FROM entry is the table's only reader, the table is a remote part's output
// with a DET key column p and no filter yet, and src does not depend on it.
func (lv *filterLevel) attach(b *ast.Query, p *ast.ColumnRef, src, srcCol string) {
	target, blk := lv.resolve(p)
	if blk != b || target == src || lv.reads[target] != 1 {
		return
	}
	part := lv.temps[target].part
	if part == nil || part.KeyFilter != nil {
		return
	}
	for cur := src; ; {
		t := lv.temps[cur]
		if t.part == nil || t.part.KeyFilter == nil {
			break
		}
		if cur = t.part.KeyFilter.Source; cur == target {
			return
		}
	}
	if e, it := detKeyColumn(part, p.Column); e != nil {
		kf := &KeyFilter{Column: p.Column, Source: src, SourceColumn: srcCol, Target: e, Item: it}
		if cr, ok := it.Expr.(*ast.ColumnRef); ok {
			kf.NDV = float64(lv.ctx.Col(it.Table, cr.Column).NDV)
		}
		part.KeyFilter = kf
	}
}

// resolve returns the temp table a column reference of the residual reads
// and blk, the block whose FROM holds it; an empty name when it binds to a
// derived table, an alias or nothing.
func (lv *filterLevel) resolve(c *ast.ColumnRef) (name string, blk *ast.Query) {
	b := lv.bound[c]
	if b.Block == nil || b.Entry < 0 || b.Block.From[b.Entry].Sub != nil {
		return "", nil
	}
	return b.Block.From[b.Entry].Name, b.Block
}

// detKeyColumn returns the RemoteSQL expression and DET item behind part's
// output col, when filtering the part on it keeps every row the residual
// reads: a bare DET column in an unlimited query, and a grouping key when the
// query groups.
func detKeyColumn(part *RemotePart, col string) (ast.Expr, *enc.Item) {
	q := part.Query
	if q.Limit >= 0 {
		return nil, nil
	}
	var it *enc.Item
	for _, o := range part.Outputs {
		if o.Name == col && o.Mode == OutDecrypt && o.Item != nil && o.Item.Scheme == enc.DET {
			it = o.Item
		}
	}
	for _, pr := range q.Projections {
		if e, ok := pr.Expr.(*ast.ColumnRef); ok && it != nil && pr.Alias == col &&
			(!hasAnyAggregate(q) || isGroupKey(q, e)) {
			return e, it
		}
	}
	return nil, nil
}

func isGroupKey(q *ast.Query, e ast.Expr) bool {
	for _, g := range q.GroupBy {
		if g.SQL() == e.SQL() {
			return true
		}
	}
	return false
}
