package engine

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/value"
)

// ErrNegativeSubstringLength is SUBSTRING(s, from, n) with n < 0, which SQL
// (and Postgres) reject rather than read as an empty string.
var ErrNegativeSubstringLength = errors.New("engine: negative substring length not allowed")

// env is the evaluation environment for one row (or one group).
type env struct {
	rel     *relation              // current relation; nil in pure-agg envs
	row     []value.Value          // current row of rel
	outer   *env                   // enclosing query's env (correlation)
	aggs    map[string]value.Value // aggregate SQL -> value for the group
	aliases map[string]ast.Expr    // SELECT-list aliases (HAVING/ORDER BY)
	ctx     *execCtx
}

// lookup resolves a column reference, walking outward for correlated refs.
func (en *env) lookup(table, col string) (value.Value, bool, error) {
	for e := en; e != nil; e = e.outer {
		if e.rel == nil {
			continue
		}
		idx, err := e.rel.indexOf(table, col)
		if err != nil {
			return value.Value{}, false, err
		}
		if idx >= 0 {
			return e.row[idx], true, nil
		}
	}
	return value.Value{}, false, nil
}

// eval evaluates an expression in the environment.
func eval(en *env, e ast.Expr) (value.Value, error) {
	switch x := e.(type) {
	case *ast.Literal:
		return x.Val, nil

	case *ast.Param:
		if en.ctx.params != nil {
			if v, ok := en.ctx.params[x.Name]; ok {
				return v, nil
			}
		}
		return value.Value{}, fmt.Errorf("engine: unbound parameter :%s", x.Name)

	case *ast.ColumnRef:
		v, ok, err := en.lookup(x.Table, x.Column)
		if err != nil {
			return value.Value{}, err
		}
		if ok {
			return v, nil
		}
		// Alias fallback for HAVING/ORDER BY referencing SELECT aliases.
		if x.Table == "" {
			for e2 := en; e2 != nil; e2 = e2.outer {
				if e2.aliases != nil {
					if ae, ok := e2.aliases[x.Column]; ok {
						return eval(e2, ae)
					}
				}
			}
		}
		return value.Value{}, fmt.Errorf("engine: unknown column %s", x.SQL())

	case *ast.AggExpr:
		if en.aggs != nil {
			if v, ok := en.aggs[x.SQL()]; ok {
				return v, nil
			}
		}
		return value.Value{}, fmt.Errorf("engine: aggregate %s outside grouping context", x.SQL())

	case *ast.BinaryExpr:
		return evalBinary(en, x)

	case *ast.UnaryExpr:
		v, err := eval(en, x.E)
		if err != nil {
			return value.Value{}, err
		}
		if x.Neg {
			return value.Neg(v), nil
		}
		if v.IsNull() {
			return v, nil
		}
		return value.NewBool(!v.AsBool()), nil

	case *ast.FuncCall:
		return evalFunc(en, x)

	case *ast.CaseExpr:
		for _, w := range x.Whens {
			ok, err := evalBool(en, w.Cond)
			if err != nil {
				return value.Value{}, err
			}
			if ok {
				return eval(en, w.Then)
			}
		}
		if x.Else != nil {
			return eval(en, x.Else)
		}
		return value.NewNull(), nil

	case *ast.BetweenExpr:
		v, err := eval(en, x.E)
		if err != nil {
			return value.Value{}, err
		}
		lo, err := eval(en, x.Lo)
		if err != nil {
			return value.Value{}, err
		}
		hi, err := eval(en, x.Hi)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return value.NewNull(), nil
		}
		in := value.Compare(v, lo) >= 0 && value.Compare(v, hi) <= 0
		return value.NewBool(in != x.Not), nil

	case *ast.LikeExpr:
		v, err := eval(en, x.E)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() {
			return value.NewNull(), nil
		}
		m := MatchLike(v.S, x.Pattern)
		return value.NewBool(m != x.Not), nil

	case *ast.IsNullExpr:
		v, err := eval(en, x.E)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool(v.IsNull() != x.Not), nil

	case *ast.IntervalExpr:
		// Intervals only appear as operands of +/- with dates; binary eval
		// handles them there. A bare interval evaluates to its day count
		// only for the "day" unit.
		if x.Unit == "day" {
			return value.NewInt(x.N), nil
		}
		return value.Value{}, fmt.Errorf("engine: interval '%d' %s outside date arithmetic", x.N, x.Unit)

	case *ast.SubqueryExpr:
		return en.ctx.scalarSubquery(en, x.Sub)

	case *ast.InExpr:
		return en.ctx.evalIn(en, x)

	case *ast.ExistsExpr:
		ok, err := en.ctx.evalExists(en, x)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool(ok), nil
	}
	return value.Value{}, fmt.Errorf("engine: cannot evaluate %T", e)
}

// evalBinary handles arithmetic, comparison, and boolean connectives,
// including date±interval arithmetic.
func evalBinary(en *env, x *ast.BinaryExpr) (value.Value, error) {
	if x.Op == ast.OpAnd || x.Op == ast.OpOr {
		return evalConnective(en, x)
	}

	// Date ± interval.
	if iv, ok := x.Right.(*ast.IntervalExpr); ok && (x.Op == ast.OpAdd || x.Op == ast.OpSub) {
		l, err := eval(en, x.Left)
		if err != nil {
			return value.Value{}, err
		}
		if l.IsNull() {
			return l, nil
		}
		n := iv.N
		if x.Op == ast.OpSub {
			n = -n
		}
		return value.NewDate(value.AddInterval(l.AsInt(), n, iv.Unit)), nil
	}

	l, err := eval(en, x.Left)
	if err != nil {
		return value.Value{}, err
	}
	r, err := eval(en, x.Right)
	if err != nil {
		return value.Value{}, err
	}
	switch x.Op {
	case ast.OpAdd:
		return value.Add(l, r), nil
	case ast.OpSub:
		return value.Sub(l, r), nil
	case ast.OpMul:
		return value.Mul(l, r), nil
	case ast.OpDiv:
		return value.Div(l, r), nil
	}
	if l.IsNull() || r.IsNull() {
		return value.NewNull(), nil
	}
	cmp := value.Compare(l, r)
	switch x.Op {
	case ast.OpEq:
		return value.NewBool(cmp == 0), nil
	case ast.OpNe:
		return value.NewBool(cmp != 0), nil
	case ast.OpLt:
		return value.NewBool(cmp < 0), nil
	case ast.OpLe:
		return value.NewBool(cmp <= 0), nil
	case ast.OpGt:
		return value.NewBool(cmp > 0), nil
	case ast.OpGe:
		return value.NewBool(cmp >= 0), nil
	}
	return value.Value{}, fmt.Errorf("engine: bad operator %v", x.Op)
}

// evalConnective evaluates AND / OR in SQL's three-valued logic: the
// operator's dominant value (false for AND, true for OR) on either side
// decides, and short-circuits when it is on the left; otherwise a NULL on
// either side makes the result NULL, so a NOT above it stays NULL rather than
// turning a filtered-out row into a kept one. Non-boolean values read as
// false, as in evalBool.
func evalConnective(en *env, x *ast.BinaryExpr) (value.Value, error) {
	dominant := x.Op == ast.OpOr
	unknown := false
	for _, side := range [2]ast.Expr{x.Left, x.Right} {
		v, err := eval(en, side)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() {
			unknown = true
		} else if v.AsBool() == dominant {
			return value.NewBool(dominant), nil
		}
	}
	if unknown {
		return value.NewNull(), nil
	}
	return value.NewBool(!dominant), nil
}

// evalBool evaluates a predicate; NULL counts as false.
func evalBool(en *env, e ast.Expr) (bool, error) {
	v, err := eval(en, e)
	if err != nil {
		return false, err
	}
	return v.AsBool(), nil
}

// evalFunc dispatches builtin scalar functions and scalar UDFs.
func evalFunc(en *env, x *ast.FuncCall) (value.Value, error) {
	name := strings.ToLower(x.Name)
	// Aggregate UDFs are computed by the grouping path and stashed in aggs.
	if en.ctx.eng.IsAggUDF(name) {
		if en.aggs != nil {
			if v, ok := en.aggs[x.SQL()]; ok {
				return v, nil
			}
		}
		return value.Value{}, fmt.Errorf("engine: aggregate UDF %s outside grouping context", x.Name)
	}

	args := make([]value.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := eval(en, a)
		if err != nil {
			return value.Value{}, err
		}
		args[i] = v
	}

	switch name {
	case "extract_year", "extract_month", "extract_day":
		if len(args) != 1 {
			return value.Value{}, fmt.Errorf("engine: %s expects 1 argument", name)
		}
		if args[0].IsNull() {
			return value.NewNull(), nil
		}
		d := args[0].AsInt()
		switch name {
		case "extract_year":
			return value.NewInt(value.ExtractYear(d)), nil
		case "extract_month":
			return value.NewInt(value.ExtractMonth(d)), nil
		default:
			return value.NewInt(value.ExtractDay(d)), nil
		}
	case "substring":
		if len(args) < 2 {
			return value.Value{}, fmt.Errorf("engine: substring expects at least 2 arguments")
		}
		for _, a := range args {
			if a.IsNull() {
				return value.NewNull(), nil
			}
		}
		s := args[0].S
		from := int(args[1].AsInt()) // 1-based
		if from < 1 {
			from = 1
		}
		start := from - 1
		if start > len(s) {
			return value.NewStr(""), nil
		}
		end := len(s)
		if len(args) >= 3 {
			n := args[2].AsInt()
			if n < 0 {
				return value.Value{}, ErrNegativeSubstringLength
			}
			if n < int64(end-start) {
				end = start + int(n)
			}
		}
		return value.NewStr(s[start:end]), nil
	}

	if fn, ok := en.ctx.eng.scalars[name]; ok {
		return fn(en.ctx.stats, args)
	}
	return value.Value{}, fmt.Errorf("engine: unknown function %s", x.Name)
}

// MatchLike implements SQL LIKE with % (any run) and _ (any single char).
func MatchLike(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Iterative two-pointer wildcard match (the classic glob algorithm).
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			mark = si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
