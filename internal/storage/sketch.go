package storage

import (
	"hash/fnv"
	"math"

	"repro/internal/value"
)

// ColMeta is a snapshot of one column's insert-time statistics, maintained
// incrementally on every Insert so they exist even when the backend cannot
// (or should not) re-read every row from disk. The planner's cost model and
// the designer read them live from the plaintext catalog (planner.Context's
// Rows and Col), the engine's join order from whatever catalog it runs on;
// both read through Table.Meta.
type ColMeta struct {
	NDV      int64 // estimated distinct non-NULL values (exact below sparseNDVLimit)
	TotalLen int64 // summed encoded size of non-NULL values
	Min, Max int64 // numeric bounds via AsInt
	HasNum   bool  // Min/Max valid (at least one numeric value seen)
}

// colMeta is the live per-column state behind a ColMeta snapshot.
type colMeta struct {
	ndv      ndvSketch
	totalLen int64
	min, max int64
	hasNum   bool
}

// observe folds one inserted value into the column statistics. NULLs are
// skipped, matching the planner's historical enumeration.
func (m *colMeta) observe(v value.Value) {
	if v.IsNull() {
		return
	}
	var kb [64]byte
	m.ndv.add(string(value.AppendKey(kb[:0], v)))
	m.totalLen += int64(v.Size())
	if v.IsNumeric() {
		x := v.AsInt()
		if !m.hasNum || x < m.min {
			m.min = x
		}
		if !m.hasNum || x > m.max {
			m.max = x
		}
		m.hasNum = true
	}
}

func (m *colMeta) snapshot() ColMeta {
	return ColMeta{NDV: m.ndv.estimate(), TotalLen: m.totalLen, Min: m.min, Max: m.max, HasNum: m.hasNum}
}

// sparseNDVLimit is the distinct-hash count at which an ndvSketch stops
// being exact and collapses into HyperLogLog registers. Below the limit
// (every fixture and most dimension columns) the estimate is exact, so
// planner selectivities are unchanged from the enumerate-all-rows era.
const sparseNDVLimit = 8192

// hllM is the HyperLogLog register count (2^8; ~6.5% standard error, 256
// bytes per high-cardinality column).
const hllM = 256

// ndvSketch estimates a column's number of distinct values from a stream of
// hash keys. It starts as an exact set of 64-bit hashes and degrades to a
// fixed-size HyperLogLog only past sparseNDVLimit, trading the in-memory
// luxury of enumerating rows for a bounded footprint a disk-backed table
// can afford.
type ndvSketch struct {
	sparse map[uint64]struct{} // nil once collapsed
	regs   []uint8             // hllM registers once collapsed
}

// hashNDV hashes a value key to 64 uniform bits: FNV-64a followed by a
// 64-bit finalizer (FNV alone under-mixes the high byte, which is exactly
// the register selector). The finalizer is bijective, so the sparse
// regime's exactness is unaffected.
func hashNDV(key string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(key))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (s *ndvSketch) add(key string) {
	h := hashNDV(key)
	if s.regs == nil {
		if s.sparse == nil {
			s.sparse = make(map[uint64]struct{})
		}
		s.sparse[h] = struct{}{}
		if len(s.sparse) <= sparseNDVLimit {
			return
		}
		// Collapse: replay the exact set into registers.
		s.regs = make([]uint8, hllM)
		for seen := range s.sparse {
			s.addDense(seen)
		}
		s.sparse = nil
		return
	}
	s.addDense(h)
}

// addDense folds a hash into the HLL registers: the first 8 bits pick the
// register, the rank is the leading-zero run of the remaining 56 bits + 1.
func (s *ndvSketch) addDense(h uint64) {
	idx := h >> 56
	rest := h << 8
	rank := uint8(1)
	for rest&(1<<63) == 0 && rank < 57 {
		rank++
		rest <<= 1
	}
	if rank > s.regs[idx] {
		s.regs[idx] = rank
	}
}

// estimate returns the distinct count: exact in the sparse regime, the
// standard HLL estimator (with the small-range linear-counting correction)
// once collapsed.
func (s *ndvSketch) estimate() int64 {
	if s.regs == nil {
		return int64(len(s.sparse))
	}
	alpha := 0.7213 / (1 + 1.079/float64(hllM))
	var sum float64
	zeros := 0
	for _, r := range s.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	e := alpha * float64(hllM) * float64(hllM) / sum
	if zeros > 0 && e <= 2.5*float64(hllM) {
		e = float64(hllM) * math.Log(float64(hllM)/float64(zeros))
	}
	return int64(e + 0.5)
}
