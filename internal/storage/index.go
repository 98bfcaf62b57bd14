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
	// Serves range predicates.
	OrderedIndex
)

func (k IndexKind) String() string {
	if k == HashIndex {
		return "hash"
	}
	return "ordered"
}

// kindClass buckets value kinds into comparison-compatible classes. Within
// a class, value.Compare is a total order consistent with value.AppendKey
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

// IndexRowCost is the charged cost of fetching one row through an index,
// in sequential scan rows: index access is random, so an index path wins
// only while it fetches fewer than 1/IndexRowCost of a table's rows (25%),
// far above the selectivities where indexes matter and safely below the
// region where a scan's locality wins. The planner's costing and the
// engine's access path both use it.
const IndexRowCost = 4

// Index is a secondary index over one column of a Table. A table declares
// its indexes at load (Table.DeclareIndex) and builds each one the first
// time a read asks for it (Table.Index); from then on Insert maintains it.
// NULL keys are never indexed: every sargable predicate evaluates to
// non-true on NULL.
type Index struct {
	Col  string
	Kind IndexKind
	pos  int // Col's schema position, resolved once when the index is declared

	class kindClass

	// HashIndex state: value.AppendKey bytes -> the key's slot in lists,
	// which holds each key's ascending row ids. A key is copied once, when
	// its slot opens; a row that repeats a key only appends its id.
	slot  map[string]int32
	lists [][]int32

	// OrderedIndex state.
	run    []ordEntry
	dirty  bool       // run has unsorted suffix
	sortMu sync.Mutex // serializes the lazy sort: the first lookups may come from several sessions at once
}

func newIndex(col string, pos int, kind IndexKind) *Index {
	ix := &Index{Col: col, Kind: kind, pos: pos, class: classNone}
	if kind == HashIndex {
		ix.slot = make(map[string]int32)
	}
	return ix
}

// observe folds v's kind class into the index's; false for a NULL, which is
// never indexed.
func (ix *Index) observe(v value.Value) bool {
	if v.IsNull() {
		return false
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
	return true
}

// add indexes one value at the given row id. Row ids arrive in ascending
// order (Insert appends), which keeps posting lists sorted for free.
func (ix *Index) add(v value.Value, row int32) {
	if ix.Kind == HashIndex {
		if s := ix.keySlot(v); s >= 0 {
			ix.lists[s] = append(ix.lists[s], row)
		}
		return
	}
	if !ix.observe(v) {
		return
	}
	ix.run = append(ix.run, ordEntry{v: v, row: row})
	ix.dirty = true
}

// keySlot returns the slot of v's key in a HashIndex, opening one for a new
// key; -1 for a NULL.
func (ix *Index) keySlot(v value.Value) int32 {
	if !ix.observe(v) {
		return -1
	}
	var kb [64]byte
	k := value.AppendKey(kb[:0], v)
	s, ok := ix.slot[string(k)]
	if !ok {
		s = int32(len(ix.lists))
		ix.slot[string(k)] = s
		ix.lists = append(ix.lists, nil)
	}
	return s
}

// fill files a backfill's rows under their key slots — slots[row] is the
// row's keySlot, -1 for a NULL — in one exact-size arena: each key's list is
// a capped window of it, so a later Insert's append reallocates only that
// key's list.
func (ix *Index) fill(slots []int32) {
	counts := make([]int32, len(ix.lists))
	n := 0
	for _, s := range slots {
		if s >= 0 {
			counts[s]++
			n++
		}
	}
	arena := make([]int32, n)
	off := 0
	for s, c := range counts {
		ix.lists[s] = arena[off : off : off+int(c)]
		off += int(c)
	}
	for row, s := range slots {
		if s >= 0 {
			ix.lists[s] = append(ix.lists[s], int32(row))
		}
	}
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
		for _, p := range ix.lists {
			n += len(p)
		}
		return n
	}
	return len(ix.run)
}

// Postings returns the ascending row ids holding exactly v, or nil.
// Only valid on a HashIndex.
func (ix *Index) Postings(v value.Value) []int32 {
	if v.IsNull() {
		return nil
	}
	var kb [64]byte
	return ix.PostingsKey(value.AppendKey(kb[:0], v))
}

// PostingsKey returns the posting list for a key value.AppendKey rendered.
// Hash-join builds match keys by key equality on both sides, exactly like
// this map, so no kind-class guard is needed here.
func (ix *Index) PostingsKey(key []byte) []int32 {
	s, ok := ix.slot[string(key)]
	if !ok {
		return nil
	}
	return ix.lists[s]
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

// indexTag names one (column, kind) index slot of a table.
type indexTag struct {
	col  string
	kind IndexKind
}

// keyIndex enforces Schema.Key uniqueness: the composite key of the key
// columns (their value.AppendKey keys, concatenated) maps to the owning row.
// Rows with any NULL key component are exempt (SQL UNIQUE semantics).
type keyIndex struct {
	cols []int // schema positions of the key columns
	seen map[string]int32
	key  []byte // the key of the row being inserted
}

// keyOf renders row's key into k.key; false when a key component is NULL.
func (k *keyIndex) keyOf(row []value.Value) bool {
	k.key = k.key[:0]
	for _, ci := range k.cols {
		if row[ci].IsNull() {
			return false
		}
		k.key = value.AppendKey(k.key, row[ci])
	}
	return true
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
