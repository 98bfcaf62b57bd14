package storage

import (
	"fmt"

	"repro/internal/value"
)

// memStore is the in-memory backend: rows as a Go slice, exactly the store
// this package began as, now private behind the Backend seam. All-column
// scans return subslices (no copies; a projected one copies the cells it
// keeps), physical reads are always 0, and the engine keeps
// charging the resident-byte approximation (Paged() == false).
type memStore struct {
	rows [][]value.Value
}

func newMemStore() *memStore { return &memStore{} }

func (m *memStore) Append(row []value.Value) error {
	m.rows = append(m.rows, row)
	return nil
}

func (m *memStore) Scan(lo, hi int, cols []int) ([][]value.Value, int64, error) {
	if lo < 0 || hi > len(m.rows) || lo > hi {
		return nil, 0, fmt.Errorf("storage: scan [%d,%d) out of range (%d rows)", lo, hi, len(m.rows))
	}
	if cols == nil {
		return m.rows[lo:hi], 0, nil
	}
	b := newRowBatch(hi-lo, len(cols))
	for _, row := range m.rows[lo:hi] {
		b.add(row, cols)
	}
	return b.rows, 0, nil
}

func (m *memStore) Fetch(ids []int32, cols []int) ([][]value.Value, int64, error) {
	b := newRowBatch(len(ids), len(cols))
	for _, id := range ids {
		if int(id) < 0 || int(id) >= len(m.rows) {
			return nil, 0, fmt.Errorf("storage: fetch id %d out of range (%d rows)", id, len(m.rows))
		}
		b.add(m.rows[id], cols)
	}
	return b.rows, 0, nil
}

func (m *memStore) NumRows() int { return len(m.rows) }

func (m *memStore) Paged() bool { return false }

func (m *memStore) Flush(*SegmentMeta) error { return nil }

func (m *memStore) Close() error { return nil }

func (m *memStore) IO() IOStats { return IOStats{} }
