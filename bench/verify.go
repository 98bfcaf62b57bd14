package main

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// The correctness gate: every timed encrypted result is compared with the
// plaintext engine's answer to the same SQL. Rows are sorted (the split
// plan may emit unordered results in another order) and floats compare
// with a relative tolerance, because the encrypted path sums in a different
// order and may differ in the last ulp. A tolerance rather than rounding:
// rounding flips on values that sit on a rounding boundary.
const floatTolerance = 1e-9

// cellCompare orders two result cells of the same column: NULL first,
// numbers numerically (an integer may face a float), strings and byte
// strings by content.
func cellCompare(a, b any) int {
	if a == nil || b == nil {
		return cmp.Compare(btoi(a != nil), btoi(b != nil))
	}
	if fa, ok := asFloat(a); ok {
		if fb, ok := asFloat(b); ok {
			if ia, ok := a.(int64); ok {
				if ib, ok := b.(int64); ok {
					return cmp.Compare(ia, ib) // exact beyond 2^53
				}
			}
			return cmp.Compare(fa, fb)
		}
	}
	switch x := a.(type) {
	case string:
		if y, ok := b.(string); ok {
			return cmp.Compare(x, y)
		}
	case []byte:
		if y, ok := b.([]byte); ok {
			return bytes.Compare(x, y)
		}
	}
	// Mixed kinds in one column: order by type name so sorting stays total.
	return cmp.Compare(fmt.Sprintf("%T", a), fmt.Sprintf("%T", b))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

func sortedRows(data [][]any) [][]any {
	out := append([][]any(nil), data...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if c := cellCompare(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
	return out
}

func cellsEqual(a, b any) bool {
	_, aInt := a.(int64)
	_, bInt := b.(int64)
	fa, aNum := asFloat(a)
	fb, bNum := asFloat(b)
	if aNum && bNum && !(aInt && bInt) {
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return false
		}
		return math.Abs(fa-fb) <= floatTolerance*math.Max(1, math.Max(math.Abs(fa), math.Abs(fb)))
	}
	return cellCompare(a, b) == 0
}

// reference is the plaintext engine's answer to one query, sorted.
type reference [][]any

func newReference(data [][]any) reference { return sortedRows(data) }

// matches reports whether an encrypted result holds the same rows.
func (want reference) matches(data [][]any) bool {
	if len(data) != len(want) {
		return false
	}
	got := sortedRows(data)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range want[i] {
			if !cellsEqual(got[i][j], want[i][j]) {
				return false
			}
		}
	}
	return true
}

// hashInputs fingerprints what a run fed the program: the generated SQL
// and parameter stream, and (through the plaintext answers) the generated
// data. Same seed, same hash; another seed, another hash.
func hashInputs(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fingerprint renders a reference for hashing; floats are cut to nine
// significant digits so the hash does not depend on summation order.
func (want reference) fingerprint() string {
	var b bytes.Buffer
	for _, row := range want {
		for _, c := range row {
			if f, ok := c.(float64); ok {
				fmt.Fprintf(&b, "%.9g|", f)
			} else {
				fmt.Fprintf(&b, "%v|", c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
