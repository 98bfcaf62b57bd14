package client

// The decryption memo. Where §8.1's client keeps one 512-entry cache, each DET
// or OPE column of each decoder clone here has its own: no lock, no eviction,
// no key but the ciphertext, no hit of another column's plaintext kind. A
// clone goes back to its template's pool after an execution; reset empties
// its memos but keeps their maps' storage, so a warm execution starts with
// empty memos that grow without allocating.

import (
	"bytes"

	"repro/internal/enc"
	"repro/internal/planner"
	"repro/internal/value"
)

const (
	// memoCap bounds a memo's map; at the cap it answers for what it holds
	// and stops inserting (enc's loadMemoCap).
	memoCap = 4096
	// memoProbe distinct ciphertexts without a repeat drop a memo: lookups
	// would only cost (storage's interning dictionary rule).
	memoProbe = 256
)

// memo maps one column's ciphertexts to plaintexts. The latest miss waits in
// last and moves into a map when the next miss arrives: a one-row decode
// builds no map, and a run of one ciphertext hits even once the map is full.
type memo struct {
	last         [2]value.Value // ⟨ciphertext, plaintext⟩ of the latest miss
	ints         map[int64]value.Value
	bytes        map[string]value.Value
	misses, hits int
	off          bool // RND, SEARCH, or a column that showed no repeat
}

// newMemo returns an empty memo, off unless o's scheme is deterministic.
func newMemo(o *planner.Output) memo {
	return memo{off: memoOff(o)}
}

// memoOff reports whether o's column is never memoised: its ciphertexts do
// not repeat with its plaintexts.
func memoOff(o *planner.Output) bool {
	return o.Item == nil || (o.Item.Scheme != enc.DET && o.Item.Scheme != enc.OPE)
}

// reset empties m and sets off, keeping the maps' storage.
func (m *memo) reset(off bool) {
	clear(m.ints)
	clear(m.bytes)
	*m = memo{ints: m.ints, bytes: m.bytes, off: off}
}

// get returns the plaintext of ciphertext cv (an Int or Bytes) if held. A
// lookup allocates nothing.
func (m *memo) get(cv value.Value) (pv value.Value, ok bool) {
	switch {
	case m.off:
		return pv, false
	case m.last[0].K == cv.K && m.last[0].I == cv.I && bytes.Equal(m.last[0].B, cv.B):
		pv, ok = m.last[1], true
	case cv.K == value.Int:
		pv, ok = m.ints[cv.I]
	default:
		pv, ok = m.bytes[string(cv.B)]
	}
	if ok {
		m.hits++
	}
	return pv, ok
}

// put records a miss: cv decrypted to pv.
func (m *memo) put(cv, pv value.Value) {
	if m.off {
		return
	}
	if m.misses++; m.hits == 0 && m.misses > memoProbe {
		m.reset(true)
		return
	}
	if prev := m.last[0]; prev.K == value.Int && len(m.ints) < memoCap {
		if m.ints == nil {
			m.ints = make(map[int64]value.Value)
		}
		m.ints[prev.I] = m.last[1]
	} else if prev.K == value.Bytes && len(m.bytes) < memoCap {
		if m.bytes == nil {
			m.bytes = make(map[string]value.Value)
		}
		m.bytes[string(prev.B)] = m.last[1]
	}
	m.last = [2]value.Value{cv, pv}
}
