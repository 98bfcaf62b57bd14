package value

import (
	"bytes"
	"math"
	"strconv"
	"testing"
)

// tupleKey is a composite key: the plain concatenation of the components'
// keys, as every caller of AppendKey builds one.
func tupleKey(tup []Value) []byte {
	var k []byte
	for _, v := range tup {
		k = AppendKey(k, v)
	}
	return k
}

// TestAppendKeyBytes pins the encoding: the NULL and numeric keys are the
// bytes HashKey always returned (NDV sketches of numeric columns see the
// same input), and Str and Bytes frame their data with a uvarint length.
func TestAppendKeyBytes(t *testing.T) {
	long := string(bytes.Repeat([]byte("x"), 200))
	for _, c := range []struct {
		v    Value
		want string
	}{
		{NewNull(), "\x00N"},
		{NewInt(3), "\x013"},
		{NewInt(-42), "\x01-42"},
		{NewFloat(3), "\x013"},
		{NewFloat(-0.0), "\x010"},
		{NewFloat(1.5), "\x02" + strconv.FormatFloat(1.5, 'b', -1, 64)},
		{NewFloat(1e20), "\x02" + strconv.FormatFloat(1e20, 'b', -1, 64)},
		{NewDate(9131), "\x019131"},
		{NewBool(true), "\x011"},
		{NewStr(""), "\x03\x00"},
		{NewStr("a\x00\x03b"), "\x03\x04a\x00\x03b"},
		{NewStr(long), "\x03\xc8\x01" + long},
		{NewBytes([]byte{4, 0}), "\x04\x02\x04\x00"},
	} {
		if got := string(AppendKey([]byte("pre"), c.v)); got != "pre"+c.want {
			t.Errorf("AppendKey(%v) = %q, want %q", c.v, got[3:], c.want)
		}
		if got := c.v.HashKey(); got != c.want {
			t.Errorf("%v.HashKey() = %q, want %q", c.v, got, c.want)
		}
	}
}

// TestAppendKeyCollisionRows: the rows that shared one key when every
// component was followed by a 0 byte — ("a\x00\x03b", "c") and
// ("a", "b\x00\x03c") — have different composite keys.
func TestAppendKeyCollisionRows(t *testing.T) {
	a := []Value{NewStr("a\x00\x03b"), NewStr("c")}
	b := []Value{NewStr("a"), NewStr("b\x00\x03c")}
	if bytes.Equal(tupleKey(a), tupleKey(b)) {
		t.Fatalf("%v and %v share the key %q", a, b, tupleKey(a))
	}
}

// fuzzTuple decodes up to three values from data — a count byte, then per
// value a kind byte and its payload — and returns the rest. Numbers are
// small so that Int, Date and integral Float values meet; strings are at
// most seven bytes of the input, NUL and tag bytes included.
func fuzzTuple(data []byte) ([]Value, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	tup := make([]Value, next()%4)
	for i := range tup {
		switch k := next(); k % 6 {
		case 0:
			tup[i] = NewNull()
		case 1:
			tup[i] = NewInt(int64(int8(next())))
		case 2: // a divisor of 0 makes ±Inf and NaN
			tup[i] = NewFloat(float64(int8(next())) / float64(k/6%5))
		case 3:
			tup[i] = NewDate(int64(int8(next())))
		default:
			n := min(int(next()%8), len(data))
			s := bytes.Clone(data[:n])
			data = data[n:]
			if k%6 == 4 {
				tup[i] = NewStr(string(s))
			} else {
				tup[i] = NewBytes(s)
			}
		}
	}
	return tup, data
}

// sameValue is key equality by the values alone: both NULL, numbers that
// compare equal, or equal strings or byte strings.
func sameValue(a, b Value) bool {
	switch {
	case a.K == Null || b.K == Null:
		return a.K == b.K
	case a.IsNumeric() && b.IsNumeric():
		return Compare(a, b) == 0 || math.IsNaN(a.AsFloat()) && math.IsNaN(b.AsFloat())
	case a.K == Str && b.K == Str:
		return a.S == b.S
	case a.K == Bytes && b.K == Bytes:
		return bytes.Equal(a.B, b.B)
	}
	return false
}

// FuzzAppendKey: two tuples share a composite key only if they have as many
// components and these are equal one by one, and an Int n keys like the
// Float n. Random tuples rarely collide, so it also checks what makes every
// concatenation read one way: no value's key, followed by a tag byte (a
// byte below 6, where the next key would start), begins another's.
func FuzzAppendKey(f *testing.F) {
	f.Add([]byte("\x02\x04\x04a\x00\x03b\x04\x01c" + "\x02\x04\x01a\x04\x04b\x00\x03c"))
	f.Add([]byte("\x01\x01\x03" + "\x01\x08\x06"))
	f.Add([]byte("\x02\x05\x02\x04\x00\x00" + "\x01\x05\x04\x02\x04\x00\x00"))
	f.Add([]byte("\x01\x02\x00" + "\x01\x02\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, rest := fuzzTuple(data)
		b, _ := fuzzTuple(rest)
		ka, kb := tupleKey(a), tupleKey(b)
		if bytes.Equal(ka, kb) {
			equal := len(a) == len(b)
			for i := 0; equal && i < len(a); i++ {
				equal = sameValue(a[i], b[i])
			}
			if !equal {
				t.Fatalf("%v and %v share the key %q", a, b, ka)
			}
		}
		for _, u := range append(a, b...) {
			for _, v := range append(a, b...) {
				ku, kv := AppendKey(nil, u), AppendKey(nil, v)
				if len(ku) < len(kv) && bytes.HasPrefix(kv, ku) && kv[len(ku)] < 6 {
					t.Fatalf("the key %q of %v begins the key %q of %v", ku, u, kv, v)
				}
			}
		}
		asFloat := make([]Value, len(a))
		for i, v := range a {
			if asFloat[i] = v; v.K == Int {
				asFloat[i] = NewFloat(float64(v.I))
			}
		}
		if k := tupleKey(asFloat); !bytes.Equal(k, ka) {
			t.Fatalf("%v keys as %q, its Float twin %v as %q", a, ka, asFloat, k)
		}
	})
}
