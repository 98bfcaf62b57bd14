// Package planner implements MONOMI's core contribution: split
// client/server execution of analytical queries over encrypted data.
//
// GENERATEQUERYPLAN (Algorithm 1 in the paper) partitions a query into a
// RemoteSQL part that the untrusted server can evaluate over ciphertexts
// with the available encryption schemes, plus local operators (decrypt,
// filter, group, sort) on the trusted client. The planner enumerates the
// power set of the query's encryption units (§6.3 pruning), costs each
// resulting plan with the §6.4 model (server I/O + network transfer +
// client decryption), and picks the cheapest — which is also the inner loop
// of the physical designer (§6.2).
package planner

import (
	"repro/internal/storage"
	"repro/internal/value"
)

// ColStats summarizes one plaintext column for selectivity and width
// estimation (the paper collects these from a user-supplied data sample).
type ColStats struct {
	Kind     value.Kind
	NDV      int64 // number of distinct values
	Min, Max int64 // numeric bounds (valid for int/date columns)
	AvgLen   int   // average encoded width in bytes
}

// TableStats summarizes one table.
type TableStats struct {
	Rows  int64
	Bytes int64
	Cols  map[string]*ColStats
}

// Stats holds per-table statistics for the whole plaintext schema.
type Stats struct {
	Tables map[string]*TableStats
}

// CollectStats derives the statistics the planner and designer need from
// each table's insert-time column metadata (an NDV sketch plus width and
// numeric bounds, maintained by storage on every Insert) — no row
// enumeration, so it costs the same whether the backend is a Go slice or a
// paged segment file on disk. In the paper this runs over a representative
// sample during setup; here the catalog is the sample.
func CollectStats(cat *storage.Catalog) *Stats {
	s := &Stats{Tables: make(map[string]*TableStats)}
	for _, name := range cat.Names() {
		t, err := cat.Table(name)
		if err != nil {
			continue
		}
		ts := &TableStats{
			Rows:  int64(t.NumRows()),
			Bytes: t.Bytes,
			Cols:  make(map[string]*ColStats),
		}
		for ci, col := range t.Schema.Cols {
			cm := t.ColMeta(ci)
			cs := &ColStats{Kind: col.Type.Kind(), NDV: cm.NDV}
			if cs.NDV == 0 {
				cs.NDV = 1
			}
			if cm.HasNum {
				cs.Min, cs.Max = cm.Min, cm.Max
			}
			if ts.Rows > 0 {
				cs.AvgLen = int(cm.TotalLen / ts.Rows)
			}
			ts.Cols[col.Name] = cs
		}
		s.Tables[name] = ts
	}
	return s
}

// Table returns the stats for a table, or an empty default.
func (s *Stats) Table(name string) *TableStats {
	if ts, ok := s.Tables[name]; ok {
		return ts
	}
	return &TableStats{Rows: 1000, Bytes: 100000, Cols: map[string]*ColStats{}}
}

// Col returns the stats for a column, or a generic default.
func (ts *TableStats) Col(name string) *ColStats {
	if cs, ok := ts.Cols[name]; ok {
		return cs
	}
	return &ColStats{Kind: value.Int, NDV: 100, AvgLen: 8}
}
