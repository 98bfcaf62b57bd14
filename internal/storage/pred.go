package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/value"
)

// Pred is a page predicate: the part of a scan's filter a paged backend
// evaluates on a sealed page's cells where they lie, column by column,
// before it decodes a row (diskStore.addSealed). It is a tree of AND and OR
// over atoms, each comparing one cell of the scanned row — a position as
// Filter.Cols counts them — with constants, ordered by value.Compare:
//
//   - PredIn, `cell IN (c, …)` (and `cell = c`, a list of one): TRUE when
//     the cell is not NULL and value.Equal to a constant;
//   - PredRange, `lo < cell < hi` with either bound inclusive or open
//     (`<`, `<=`, `>`, `>=`, BETWEEN): TRUE when the cell is not NULL and
//     within both bounds.
//
// A NULL constant is never equal to a cell, so PredIn drops it; a range
// with a NULL bound, never TRUE in SQL, is the caller's to write as an
// empty PredIn.
//
// Evaluation reads only TRUE: an atom marks the rows it is TRUE on, AND
// intersects its children's marks and OR unites them. That is exact SQL
// three-valued logic for a filter, because AND and OR are monotone: a tree
// of them is TRUE on a row exactly when the atoms TRUE on the row make it
// so, whatever its FALSE and NULL atoms are, and a filter drops a NULL row
// as it drops a FALSE one. (NOT is not monotone and has no node: a
// predicate holding one stays the filter's Keep.)
//
// A fixed region (diskstore.go) is compared in place when every constant of
// an atom is of the region's family: an Int or Date region against Int and
// Date constants as int64s, a Bytes region against Bytes constants as
// payload slices. Every other cell is decoded (pageImage.cell) and compared
// with value.Compare, so an atom agrees with the engine's eval by
// construction. A Pred is read-only once built and may be shared by any
// number of concurrent scans.
type Pred struct {
	op     predOp
	kids   []Pred // predAnd, predOr
	col    int    // an atom's cell
	in     []value.Value
	lo, hi *value.Value // predRange: the bounds, nil where open
	loIncl bool
	hiIncl bool

	// ints: every constant is an Int or a Date; raw: every constant is Bytes.
	ints, raw bool
}

type predOp uint8

const (
	predAnd predOp = iota
	predOr
	predIn
	predRange
)

// PredIn is the atom `cell IN (in…)` on position col of the scanned row.
func PredIn(col int, in ...value.Value) Pred {
	p := Pred{op: predIn, col: col, ints: true, raw: true}
	for _, v := range in {
		if v.IsNull() {
			continue
		}
		p.in = append(p.in, v)
		p.kind(v)
	}
	return p
}

// PredRange is the atom `lo < cell < hi` on position col of the scanned
// row, each bound inclusive when its flag says so and open when nil. A
// bound must not be NULL.
func PredRange(col int, lo, hi *value.Value, loIncl, hiIncl bool) Pred {
	p := Pred{op: predRange, col: col, loIncl: loIncl, hiIncl: hiIncl, ints: true, raw: true}
	if lo != nil {
		v := *lo
		p.lo = &v
		p.kind(v)
	}
	if hi != nil {
		v := *hi
		p.hi = &v
		p.kind(v)
	}
	return p
}

// kind clears the fast-path flags constant v rules out.
func (p *Pred) kind(v value.Value) {
	p.ints = p.ints && (v.K == value.Int || v.K == value.Date)
	p.raw = p.raw && v.K == value.Bytes
}

// PredAnd is the conjunction of kids; a child that is itself an AND is
// flattened into it, and a conjunction of one is that one.
func PredAnd(kids ...Pred) Pred { return connective(predAnd, kids) }

// PredOr is the disjunction of kids, flattened as PredAnd's.
func PredOr(kids ...Pred) Pred { return connective(predOr, kids) }

func connective(op predOp, kids []Pred) Pred {
	if len(kids) == 1 {
		return kids[0]
	}
	p := Pred{op: op}
	for _, k := range kids {
		if k.op == op {
			p.kids = append(p.kids, k.kids...)
		} else {
			p.kids = append(p.kids, k)
		}
	}
	return p
}

// holds is an atom on a decoded cell.
func (p *Pred) holds(v value.Value) bool {
	if v.IsNull() {
		return false
	}
	if p.op == predIn {
		for _, c := range p.in {
			if value.Compare(v, c) == 0 {
				return true
			}
		}
		return false
	}
	if p.lo != nil {
		if c := value.Compare(v, *p.lo); c < 0 || c == 0 && !p.loIncl {
			return false
		}
	}
	if p.hi != nil {
		if c := value.Compare(v, *p.hi); c > 0 || c == 0 && !p.hiIncl {
			return false
		}
	}
	return true
}

// holdsInt is an atom whose constants are all Int or Date on an Int or
// Date cell x, as value.Compare orders them.
func (p *Pred) holdsInt(x int64) bool {
	if p.op == predIn {
		for i := range p.in {
			if x == p.in[i].I {
				return true
			}
		}
		return false
	}
	if p.lo != nil && (x < p.lo.I || x == p.lo.I && !p.loIncl) {
		return false
	}
	if p.hi != nil && (x > p.hi.I || x == p.hi.I && !p.hiIncl) {
		return false
	}
	return true
}

// holdsRaw is an atom whose constants are all Bytes on a Bytes cell b.
func (p *Pred) holdsRaw(b []byte) bool {
	if p.op == predIn {
		for _, c := range p.in {
			if bytes.Equal(b, c.B) {
				return true
			}
		}
		return false
	}
	if p.lo != nil {
		if c := bytes.Compare(b, p.lo.B); c < 0 || c == 0 && !p.loIncl {
			return false
		}
	}
	if p.hi != nil {
		if c := bytes.Compare(b, p.hi.B); c > 0 || c == 0 && !p.hiIncl {
			return false
		}
	}
	return true
}

// pageEval evaluates a Pred on the rows sel selects on one pinned page
// image, whose rows are projected onto cols. masks is a stack of the OR
// nodes' working masks, kept in the read's rowBatch so a Scratch reuses it.
type pageEval struct {
	img   *pageImage
	cols  []int
	sel   *pageSel
	masks *[][]bool
	depth int
}

// match narrows mask — entry k for row sel.row(k) — to the rows p is TRUE on.
// An entry already false stays false, and its row's cells are not read.
func (e *pageEval) match(p *Pred, mask []bool) error {
	switch p.op {
	case predAnd:
		for i := range p.kids {
			if err := e.match(&p.kids[i], mask); err != nil {
				return err
			}
		}
		return nil
	case predOr:
		acc, try := e.mask(len(mask)), e.mask(len(mask))
		for i := range p.kids {
			for k := range mask {
				try[k] = mask[k] && !acc[k]
			}
			if err := e.match(&p.kids[i], try); err != nil {
				return err
			}
			for k := range acc {
				acc[k] = acc[k] || try[k]
			}
		}
		copy(mask, acc)
		e.depth -= 2
		return nil
	}
	return e.atom(p, mask)
}

// mask returns the next mask of the stack, n entries all false.
func (e *pageEval) mask(n int) []bool {
	if e.depth == len(*e.masks) {
		*e.masks = append(*e.masks, nil)
	}
	m := &(*e.masks)[e.depth]
	e.depth++
	if cap(*m) < n {
		*m = make([]bool, n)
	}
	*m = (*m)[:n]
	clear(*m)
	return *m
}

// atom narrows mask to the rows the atom p is TRUE on, in place on a fixed
// region of its constants' family, else through decoded cells.
func (e *pageEval) atom(p *Pred, mask []bool) error {
	c := at(e.cols, p.col)
	col := &e.img.cols[c]
	pay := e.img.payload
	switch {
	case p.ints && (col.mode == value.Int || col.mode == value.Date):
		for k := range mask {
			if mask[k] {
				r := e.sel.row(k)
				mask[k] = p.holdsInt(int64(binary.BigEndian.Uint64(pay[col.start+r*8:])))
			}
		}
	case p.raw && col.mode == value.Bytes:
		for k := range mask {
			if mask[k] {
				at := col.start + e.sel.row(k)*col.width
				mask[k] = p.holdsRaw(pay[at : at+col.width])
			}
		}
	default:
		for k := range mask {
			if mask[k] {
				r := e.sel.row(k)
				v, err := e.img.cell(c, r)
				if err != nil {
					return fmt.Errorf("row %d: %w", e.sel.first+r, err)
				}
				mask[k] = p.holds(v)
			}
		}
	}
	return nil
}
