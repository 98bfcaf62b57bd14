package planner

import (
	"math"

	"repro/internal/ast"
	"repro/internal/enc"
	"repro/internal/netsim"
	"repro/internal/value"
)

// CostModel implements §6.4: plan cost = server execution time + network
// transfer time + client post-processing (decryption) time. The paper
// profiles the per-operation costs "when MONOMI is first launched"; here they
// are constants, so every host re-deriving a design (internal/deploy) agrees.
type CostModel struct {
	Cfg netsim.Config

	// Client-side per-operation decryption costs, seconds.
	DetInt float64 // DET integer (Feistel)
	DetStr float64 // DET string (wide-block)
	Ope    float64 // OPE (binary-search replay)
	Rnd    float64 // RND (AES-CTR)
	HomDec float64 // Paillier decryption (modular exponentiation)

	// Server-side Paillier modular multiplication cost, seconds.
	HomMul float64

	// HomCipherBytes is the serialized Paillier ciphertext width.
	HomCipherBytes int
}

// DefaultCostModel returns calibrated constants for a modern x86 core with
// a 1,024-bit Paillier modulus.
func DefaultCostModel(cfg netsim.Config) *CostModel {
	return &CostModel{
		Cfg:            cfg,
		DetInt:         300e-9,
		DetStr:         1e-6,
		Ope:            40e-6,
		Rnd:            500e-9,
		HomDec:         2e-3,
		HomMul:         5e-6,
		HomCipherBytes: 256,
	}
}

// decCost returns the client cost of producing one plaintext value from an
// output column (ConcatAgg and HomSum are charged per element/decryption by
// the callers).
func (m *CostModel) decCost(o *Output) float64 {
	switch o.Mode {
	case OutPlain:
		return 0
	case OutDecrypt, OutConcatAgg:
		if o.Item == nil {
			return 0
		}
		switch o.Item.Scheme {
		case enc.DET:
			if o.Item.PlainKind == value.Str {
				return m.DetStr
			}
			return m.DetInt
		case enc.OPE:
			return m.Ope
		case enc.RND:
			return m.Rnd
		}
		return m.DetInt
	case OutHomSum:
		return m.HomDec
	}
	return 0
}

// valueWidth estimates the wire width of one output value.
func (ctx *Context) valueWidth(o *Output) float64 {
	switch o.Mode {
	case OutPlain:
		return 8
	case OutDecrypt:
		if o.Item == nil {
			return 8
		}
		switch o.Item.Scheme {
		case enc.DET:
			if o.Item.PlainKind == value.Str {
				return float64(ctx.itemAvgLen(o.Item))
			}
			return 8
		case enc.OPE:
			return 16
		case enc.RND:
			return float64(ctx.itemAvgLen(o.Item)) + 16
		}
	}
	return 8
}

// itemAvgLen estimates an item's plaintext width from column stats.
func (ctx *Context) itemAvgLen(it *enc.Item) int {
	if cr, ok := it.Expr.(*ast.ColumnRef); ok {
		return maxInt(8, ctx.Stats.Table(it.Table).Col(cr.Column).AvgLen)
	}
	return 8
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// estimator produces cardinality and size estimates from plaintext stats.
type estimator struct{ ctx *Context }

// selectivity estimates the fraction of rows a plaintext predicate keeps.
func (e *estimator) selectivity(s *scope, pred ast.Expr) float64 {
	switch x := pred.(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case ast.OpAnd:
			return e.selectivity(s, x.Left) * e.selectivity(s, x.Right)
		case ast.OpOr:
			a, b := e.selectivity(s, x.Left), e.selectivity(s, x.Right)
			return a + b - a*b
		case ast.OpEq:
			if ndv := e.sideNDV(s, x.Left, x.Right); ndv > 0 {
				return 1 / float64(ndv)
			}
			return 0.05
		case ast.OpNe:
			return 0.9
		default:
			return 0.33
		}
	case *ast.BetweenExpr:
		return 0.15
	case *ast.InExpr:
		if x.Sub != nil {
			return 0.3
		}
		sel := 0.0
		for range x.List {
			if ndv := e.exprNDV(s, x.E); ndv > 0 {
				sel += 1 / float64(ndv)
			} else {
				sel += 0.05
			}
		}
		return math.Min(sel, 1)
	case *ast.LikeExpr:
		return 0.05
	case *ast.IsNullExpr:
		return 0.05
	case *ast.ExistsExpr:
		if x.Not {
			return 0.25
		}
		return 0.75
	case *ast.UnaryExpr:
		if !x.Neg {
			return 1 - e.selectivity(s, x.E)
		}
	}
	return 0.33
}

// sideNDV finds the NDV of the column side of a comparison.
func (e *estimator) sideNDV(s *scope, l, r ast.Expr) int64 {
	if n := e.exprNDV(s, l); n > 0 {
		return n
	}
	return e.exprNDV(s, r)
}

// exprNDV estimates an expression's distinct-value count.
func (e *estimator) exprNDV(s *scope, x ast.Expr) int64 {
	switch n := x.(type) {
	case *ast.ColumnRef:
		if entry, ok := s.entryFor(n); ok && entry.table != "" {
			base, _ := StripEncSuffix(n.Column)
			return e.ctx.Stats.Table(entry.table).Col(base).NDV
		}
	case *ast.FuncCall:
		if n.Name == "extract_year" {
			return 7 // TPC-H date range spans 1992-1998
		}
		if n.Name == "substring" {
			return 25
		}
	}
	return 0
}

// joinEstimate approximates the row count of a FROM join after applying
// the pushed single/multi-table filters: TPC-H joins are foreign-key
// chains, so the filtered fact table dominates.
func (e *estimator) joinEstimate(s *scope, from []ast.TableRef, conjuncts []ast.Expr) float64 {
	// Per-table selectivity for single-table conjuncts; cross-table
	// non-join predicates multiply the result.
	perTable := make(map[string]float64)
	cross := 1.0
	for _, c := range conjuncts {
		entry := s.singleEntry(c)
		if entry != nil {
			perTable[entry.ref] = orDefault(perTable[entry.ref], 1) * e.selectivity(s, c)
			continue
		}
		if b, ok := c.(*ast.BinaryExpr); ok && b.Op == ast.OpEq {
			_, lIsCol := b.Left.(*ast.ColumnRef)
			_, rIsCol := b.Right.(*ast.ColumnRef)
			if lIsCol && rIsCol {
				continue // FK join edge: absorbed by the max() below
			}
		}
		cross *= e.selectivity(s, c)
	}
	est := 0.0
	for _, f := range from {
		rows := float64(e.ctx.Stats.Table(f.Name).Rows)
		sel := orDefault(perTable[f.RefName()], 1)
		if v := rows * sel; v > est {
			est = v
		}
	}
	return math.Max(1, est*cross)
}

func orDefault(v, d float64) float64 {
	if v == 0 {
		return d
	}
	return v
}

// encTableBytes estimates a table's encrypted heap size under the current
// design (row items only; HOM packs live in the ciphertext files).
func (e *estimator) encTableBytes(table string) float64 {
	ts := e.ctx.Stats.Table(table)
	rowBytes := 24.0 // per-row overhead
	hasHom := false
	for _, it := range e.ctx.Design.TableItems(table) {
		switch it.Scheme {
		case enc.HOM:
			hasHom = true
		case enc.DET:
			rowBytes += float64(e.ctx.itemAvgLen(&it))
		case enc.OPE:
			rowBytes += 16
		case enc.RND:
			rowBytes += float64(e.ctx.itemAvgLen(&it)) + 16
		case enc.SEARCH:
			rowBytes += float64(e.ctx.itemAvgLen(&it)) * 1.4
		}
	}
	if hasHom {
		rowBytes += 8 // row_id
	}
	return rowBytes * float64(ts.Rows)
}
