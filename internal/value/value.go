// Package value defines the SQL value model shared by the storage engine,
// the expression evaluator, and the encryption layer.
//
// MONOMI's evaluation replaces DECIMAL columns with scaled integers (§8.1 of
// the paper), so the numeric kinds here are int64 (covering integers, scaled
// decimals, and dates encoded as days since the Unix epoch) and float64
// (used only for averages and derived ratios). Ciphertexts are carried as
// Bytes values so that encrypted tables flow through the very same engine
// that executes plaintext queries.
package value

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported kinds.
const (
	Null  Kind = iota
	Int        // int64: integers, scaled decimals, dates (days since epoch)
	Float      // float64: AVG results and arithmetic involving division
	Str        // string
	Bool       // boolean
	Bytes      // opaque byte string (ciphertexts)
	Date       // int64 days since 1970-01-01, kept distinct for EXTRACT
)

func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Int:
		return "int"
	case Float:
		return "float"
	case Str:
		return "string"
	case Bool:
		return "bool"
	case Bytes:
		return "bytes"
	case Date:
		return "date"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is a dynamically typed SQL value. The zero Value is SQL NULL.
type Value struct {
	K Kind
	I int64
	F float64
	S string
	B []byte
}

// Constructors.

// NewNull returns the SQL NULL value.
func NewNull() Value { return Value{} }

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{K: Int, I: i} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{K: Float, F: f} }

// NewStr returns a string value.
func NewStr(s string) Value { return Value{K: Str, S: s} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	v := Value{K: Bool}
	if b {
		v.I = 1
	}
	return v
}

// NewBytes returns an opaque byte-string value (ciphertexts).
func NewBytes(b []byte) Value { return Value{K: Bytes, B: b} }

// NewDate returns a date value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{K: Date, I: days} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.K == Null }

// AsBool reports the truth value of v; NULL and non-bool values are false.
func (v Value) AsBool() bool { return v.K == Bool && v.I != 0 }

// AsInt returns the value as an int64, coercing floats and dates.
func (v Value) AsInt() int64 {
	switch v.K {
	case Int, Date, Bool:
		return v.I
	case Float:
		return int64(v.F)
	}
	return 0
}

// AsFloat returns the value as a float64, coercing integers and dates.
func (v Value) AsFloat() float64 {
	switch v.K {
	case Int, Date, Bool:
		return float64(v.I)
	case Float:
		return v.F
	}
	return 0
}

// IsNumeric reports whether v participates in arithmetic.
func (v Value) IsNumeric() bool { return v.K == Int || v.K == Float || v.K == Date }

// String renders the value for display and debugging.
func (v Value) String() string {
	switch v.K {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case Str:
		return v.S
	case Bool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case Bytes:
		return fmt.Sprintf("0x%x", v.B)
	case Date:
		return FormatDate(v.I)
	}
	return "?"
}

// Size returns the approximate on-disk size in bytes of the value, used by
// the storage layer's I/O accounting and by the designer's space model.
func (v Value) Size() int {
	switch v.K {
	case Null:
		return 1
	case Int, Date:
		return 8
	case Float:
		return 8
	case Bool:
		return 1
	case Str:
		return len(v.S)
	case Bytes:
		return len(v.B)
	}
	return 0
}

// Compare orders two values: -1 if v < o, 0 if equal, +1 if v > o.
// NULL sorts before everything; cross-numeric comparisons coerce to float.
func Compare(v, o Value) int {
	if v.K == Null || o.K == Null {
		switch {
		case v.K == Null && o.K == Null:
			return 0
		case v.K == Null:
			return -1
		default:
			return 1
		}
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.K == Float || o.K == Float {
			a, b := v.AsFloat(), o.AsFloat()
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			}
			return 0
		}
		a, b := v.I, o.I
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	switch v.K {
	case Str:
		return strings.Compare(v.S, o.S)
	case Bool:
		return int(v.I - o.I)
	case Bytes:
		return bytes.Compare(v.B, o.B)
	}
	return 0
}

// Equal reports SQL equality (NULL != NULL here; three-valued logic is the
// evaluator's concern — Equal is used for grouping/join keys where NULLs
// have already been screened).
func Equal(v, o Value) bool { return v.K != Null && o.K != Null && Compare(v, o) == 0 }

// AppendKey appends v's equality key to dst: the one key encoder, under
// every grouping, DISTINCT, join, subquery probe, index and NDV sketch. NULL
// and numeric keys are a tag byte and text holding no tag byte; Str and
// Bytes keys are a tag, a uvarint length and the data. Every key is thus
// self-delimiting, so a composite key is the plain concatenation of its
// components' keys. Int 3 and Float 3.0 share a key.
func AppendKey(dst []byte, v Value) []byte {
	switch v.K {
	case Null:
		return append(dst, 0, 'N')
	case Int, Date, Bool:
		return strconv.AppendInt(append(dst, 1), v.I, 10)
	case Float:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return strconv.AppendInt(append(dst, 1), int64(v.F), 10)
		}
		return strconv.AppendFloat(append(dst, 2), v.F, 'b', -1, 64)
	case Str:
		return append(binary.AppendUvarint(append(dst, 3), uint64(len(v.S))), v.S...)
	case Bytes:
		return append(binary.AppendUvarint(append(dst, 4), uint64(len(v.B))), v.B...)
	}
	return append(dst, 5)
}

// HashKey returns v's equality key (AppendKey) as a string.
func (v Value) HashKey() string { return string(AppendKey(nil, v)) }

// Add returns v + o with numeric coercion; NULL if either operand is NULL.
func Add(v, o Value) Value { return arith(v, o, '+') }

// Sub returns v - o.
func Sub(v, o Value) Value { return arith(v, o, '-') }

// Mul returns v * o.
func Mul(v, o Value) Value { return arith(v, o, '*') }

// Div returns v / o. Integer division by zero and NULL operands yield NULL.
// Division always produces a float to match analytical-query expectations.
func Div(v, o Value) Value {
	if v.K == Null || o.K == Null {
		return NewNull()
	}
	d := o.AsFloat()
	if d == 0 {
		return NewNull()
	}
	return NewFloat(v.AsFloat() / d)
}

func arith(v, o Value, op byte) Value {
	if v.K == Null || o.K == Null {
		return NewNull()
	}
	if v.K == Float || o.K == Float {
		a, b := v.AsFloat(), o.AsFloat()
		switch op {
		case '+':
			return NewFloat(a + b)
		case '-':
			return NewFloat(a - b)
		case '*':
			return NewFloat(a * b)
		}
	}
	a, b := v.AsInt(), o.AsInt()
	var r int64
	switch op {
	case '+':
		r = a + b
	case '-':
		r = a - b
	case '*':
		r = a * b
	}
	if v.K == Date && o.K == Int && (op == '+' || op == '-') {
		return NewDate(r)
	}
	return NewInt(r)
}

// Neg returns -v.
func Neg(v Value) Value {
	switch v.K {
	case Int:
		return NewInt(-v.I)
	case Float:
		return NewFloat(-v.F)
	case Null:
		return NewNull()
	}
	return NewNull()
}
