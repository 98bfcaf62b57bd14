package storage

import (
	"math"
	"sort"
	"sync"

	"repro/internal/value"
)

// IndexKind distinguishes the two physical index structures the encrypted
// schemes admit: DET ciphertexts preserve equality, so they support a hash
// index; OPE ciphertexts preserve order, so they support an ordered run.
type IndexKind uint8

// Index kinds.
const (
	// HashIndex maps a key to the ascending posting list of row ids that
	// hold it. Serves `=` and `IN` predicates and hash-join builds.
	HashIndex IndexKind = iota
	// OrderedIndex keeps a lazily-sorted run of (key, row id) entries.
	// Serves range predicates and ordered emission for prefix ORDER BY.
	OrderedIndex
)

func (k IndexKind) String() string {
	if k == HashIndex {
		return "hash"
	}
	return "ordered"
}

// kindClass buckets value kinds into comparison-compatible classes. Within
// a class, value.Compare is a total order consistent with value.HashKey
// equality; across classes Compare degenerates (e.g. Str vs Int compares
// the string against ""), so an index only answers predicates whose
// literal falls in the index's class.
type kindClass int8

const (
	classNone kindClass = iota
	classNum            // Int, Float, Date: mutually comparable
	classStr
	classBool
	classBytes
	classMixed // more than one class was inserted; ordered runs degenerate
)

func classOf(k value.Kind) kindClass {
	switch k {
	case value.Int, value.Float, value.Date:
		return classNum
	case value.Str:
		return classStr
	case value.Bool:
		return classBool
	case value.Bytes:
		return classBytes
	}
	return classNone
}

// ordEntry is one (key, row) pair of an ordered run.
type ordEntry struct {
	v   value.Value
	row int32
}

// Index is a secondary index over one column of a Table, maintained
// incrementally by Insert. NULL keys are never indexed: every sargable
// predicate evaluates to non-true on NULL, and ordered emission tracks
// NULL rows separately so a full ordered walk can still reproduce the
// engine's NULLS-FIRST stable sort.
type Index struct {
	Col  string
	Kind IndexKind
	pos  int // Col's schema position, resolved once when the index is built

	class kindClass

	// HashIndex state: value.HashKey -> ascending row ids.
	post map[string][]int32

	// OrderedIndex state.
	run    []ordEntry
	dirty  bool       // run has unsorted suffix
	sortMu sync.Mutex // serializes the lazy sort: the first lookups may come from several sessions at once
	nulls  []int32    // rows with NULL key, ascending
}

func newIndex(col string, pos int, kind IndexKind) *Index {
	ix := &Index{Col: col, Kind: kind, pos: pos, class: classNone}
	if kind == HashIndex {
		ix.post = make(map[string][]int32)
	}
	return ix
}

// add indexes one value at the given row id. Row ids arrive in ascending
// order (Insert appends), which keeps posting lists sorted for free.
func (ix *Index) add(v value.Value, row int32) {
	if v.IsNull() {
		if ix.Kind == OrderedIndex {
			ix.nulls = append(ix.nulls, row)
		}
		return
	}
	if v.K == value.Float && math.IsNaN(v.F) {
		// NaN Compare-equals every numeric but hashes uniquely; no index
		// structure can mirror the evaluator, so the column degenerates.
		ix.class = classMixed
	} else if c := classOf(v.K); ix.class == classNone {
		ix.class = c
	} else if ix.class != c {
		ix.class = classMixed
	}
	if ix.Kind == HashIndex {
		k := v.HashKey()
		ix.post[k] = append(ix.post[k], row)
		return
	}
	ix.run = append(ix.run, ordEntry{v: v, row: row})
	ix.dirty = true
}

// Usable reports whether the index can answer predicates whose literal has
// kind lk. A mixed-class ordered run has no total order and answers
// nothing; a class mismatch would silently miss rows that the engine's
// cross-kind Compare quirks would have matched.
func (ix *Index) Usable(lk value.Kind) bool {
	if ix.class == classMixed && ix.Kind == OrderedIndex {
		return false
	}
	c := classOf(lk)
	return c != classNone && (ix.class == c || ix.class == classNone)
}

// Len returns the number of indexed (non-NULL) entries.
func (ix *Index) Len() int {
	if ix.Kind == HashIndex {
		n := 0
		for _, p := range ix.post {
			n += len(p)
		}
		return n
	}
	return len(ix.run)
}

// Postings returns the ascending row ids holding exactly v, or nil.
// Only valid on a HashIndex.
func (ix *Index) Postings(v value.Value) []int32 {
	if v.IsNull() || ix.post == nil {
		return nil
	}
	return ix.post[v.HashKey()]
}

// PostingsKey returns the posting list for a pre-rendered value.HashKey.
// Hash-join builds match keys by HashKey equality on both sides, exactly
// like this map, so no kind-class guard is needed here.
func (ix *Index) PostingsKey(hashKey string) []int32 {
	if ix.post == nil {
		return nil
	}
	return ix.post[hashKey]
}

// ensureSorted sorts the run by (key, row id). The sort is lazy so bulk
// loads stay O(n) per insert; the first lookup after a batch of inserts
// pays one O(n log n) sort.
func (ix *Index) ensureSorted() {
	ix.sortMu.Lock()
	defer ix.sortMu.Unlock()
	if !ix.dirty {
		return
	}
	sort.Slice(ix.run, func(i, j int) bool {
		c := value.Compare(ix.run[i].v, ix.run[j].v)
		if c != 0 {
			return c < 0
		}
		return ix.run[i].row < ix.run[j].row
	})
	ix.dirty = false
}

// rangeBounds locates the sorted-run segment [start, end) matching the
// bounds. A nil bound is open; loIncl/hiIncl select closed vs open
// endpoints. Callers must hold an up-to-date run (ensureSorted).
func (ix *Index) rangeBounds(lo, hi *value.Value, loIncl, hiIncl bool) (start, end int) {
	start = 0
	if lo != nil {
		start = sort.Search(len(ix.run), func(i int) bool {
			c := value.Compare(ix.run[i].v, *lo)
			if loIncl {
				return c >= 0
			}
			return c > 0
		})
	}
	end = len(ix.run)
	if hi != nil {
		end = sort.Search(len(ix.run), func(i int) bool {
			c := value.Compare(ix.run[i].v, *hi)
			if hiIncl {
				return c > 0
			}
			return c >= 0
		})
	}
	return start, end
}

// RangeCount reports how many row ids Range would return, from the
// boundary searches alone — O(log n), no id materialization — so a caller
// can reject an unselective range probe before paying for its ids.
func (ix *Index) RangeCount(lo, hi *value.Value, loIncl, hiIncl bool) int {
	if ix.Kind != OrderedIndex {
		return 0
	}
	ix.ensureSorted()
	start, end := ix.rangeBounds(lo, hi, loIncl, hiIncl)
	if start >= end {
		return 0
	}
	return end - start
}

// Range returns the ascending row ids whose key falls in the given bounds.
// Only valid on an OrderedIndex.
func (ix *Index) Range(lo, hi *value.Value, loIncl, hiIncl bool) []int32 {
	if ix.Kind != OrderedIndex {
		return nil
	}
	ix.ensureSorted()
	start, end := ix.rangeBounds(lo, hi, loIncl, hiIncl)
	if start >= end {
		return nil
	}
	ids := make([]int32, end-start)
	for i := start; i < end; i++ {
		ids[i-start] = ix.run[i].row
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// EmitOrdered returns every row id (including NULL-key rows) in the order
// a stable sort on the indexed column would produce: ascending keys with
// NULLs first, row id breaking ties — exactly the engine's ORDER BY. For
// desc, equal-key groups reverse as blocks but rows within a group keep
// ascending row order (stable sort on a descending comparator), and NULLs
// move last.
func (ix *Index) EmitOrdered(desc bool) []int32 {
	if ix.Kind != OrderedIndex || ix.class == classMixed {
		return nil
	}
	ix.ensureSorted()
	ids := make([]int32, 0, len(ix.run)+len(ix.nulls))
	if !desc {
		ids = append(ids, ix.nulls...)
		for _, e := range ix.run {
			ids = append(ids, e.row)
		}
		return ids
	}
	// Walk equal-key groups from the high end; rows inside a group stay
	// ascending.
	for end := len(ix.run); end > 0; {
		start := end - 1
		for start > 0 && value.Compare(ix.run[start-1].v, ix.run[end-1].v) == 0 {
			start--
		}
		for i := start; i < end; i++ {
			ids = append(ids, ix.run[i].row)
		}
		end = start
	}
	return append(ids, ix.nulls...)
}

// indexTag names one (column, kind) index slot of a table.
type indexTag struct {
	col  string
	kind IndexKind
}

// keyIndex enforces Schema.Key uniqueness: the concatenated HashKey of the
// key columns maps to the owning row. Rows with any NULL key component are
// exempt (SQL UNIQUE semantics).
type keyIndex struct {
	cols []int // schema positions of the key columns
	seen map[string]int32
}

func (k *keyIndex) keyOf(row []value.Value) (string, bool) {
	s := ""
	for _, ci := range k.cols {
		v := row[ci]
		if v.IsNull() {
			return "", false
		}
		s += v.HashKey() + "\x00"
	}
	return s, true
}

// internRefBytes is the accounted resident size of a dictionary reference:
// a duplicate ciphertext occupies one 4-byte id in the row instead of a
// fresh copy of its bytes.
const internRefBytes = 4

// internDisableAfter / internDisableRatio: once a column has seen this
// many distinct values with a hit rate below 1/internDisableRatio, the
// dictionary is clearly not paying for itself (high-cardinality or random
// ciphertexts like RND) and is dropped to avoid doubling resident memory.
const (
	internDisableAfter = 4096
	internDisableRatio = 16
)

// internDict interns repeated string/bytes values of one column: the first
// occurrence is canonical, later equal values share its backing and are
// accounted at internRefBytes.
type internDict struct {
	m        map[string]value.Value
	hits     int64
	disabled bool
}

// add returns the canonical value and the resident bytes to charge.
func (d *internDict) add(v value.Value) (value.Value, int64) {
	if d.disabled {
		return v, int64(v.Size())
	}
	if d.m == nil {
		d.m = make(map[string]value.Value)
	}
	var key string
	if v.K == value.Bytes {
		key = string(v.B)
	} else {
		key = v.S
	}
	if cv, ok := d.m[key]; ok {
		d.hits++
		return cv, internRefBytes
	}
	d.m[key] = v
	if len(d.m) >= internDisableAfter &&
		d.hits*internDisableRatio < d.hits+int64(len(d.m)) {
		d.disabled = true
		d.m = nil
	}
	return v, int64(v.Size())
}
