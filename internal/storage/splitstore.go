package storage

import (
	"errors"

	"repro/internal/value"
)

// splitStore is the disk backend of a table split by column into two
// segments with the same row ids (Catalog.CreateSplit): the hot segment
// holds the columns the workload's plans read, the cold segment the rest.
// Each segment is a diskStore of its own — file (<table>.seg and
// <table>.cold.seg), page directory, tail page and block cache — so both are
// sealed, checksummed and verified exactly as a one-segment table is.
//
//	schema:        c0   c1   c2   c3   c4        (c1, c3 cold)
//	<table>.seg:   c0        c2        c4        the table's block cache
//	<table>.cold.seg:   c1        c3             a cache of its own, filled
//	                                             only when a read names c1/c3
//
// A read whose columns are all hot is the hot segment's read, the schema
// positions renumbered to the segment's: it pins no cold page, and its
// filter — whose positions count the projected row's cells, which keep
// their order — applies unchanged, page predicate included. A read that
// names a cold column gets the cold cells by row id: it reads each segment
// over the same ids (a Scan's range, a Fetch's list), for that segment's
// share of the columns and unfiltered, zips the two into the projected rows
// and then applies the whole filter (Keep). Rows and their order are a
// one-segment store's either way; only the bytes differ.
//
// Charging: each segment charges the pages the call pins there by the
// diskStore rule (a Scan a page holding its first row, a Fetch every page it
// pins), and the call reports their sum. So a full scan of cols charges
// Size(cols): the hot segment's size for hot columns, plus the cold
// segment's when a column is cold (the hot one's only when a column is hot).
type splitStore struct {
	hot, cold *diskStore
	isCold    []bool        // by schema position
	at        []int         // by schema position: the position within its segment
	all       []int         // 0, 1, …, ncols-1: every schema position, and the identity projection
	perm      []value.Value // Append's scratch (writes are single-threaded)
}

// createSplitStore creates the two segments of table name, whose columns
// isCold marks (some but not all of them); each segment zones its share of
// the columns isZoned marks.
func createSplitStore(cfg BackendConfig, name string, isCold, isZoned []bool) (*splitStore, error) {
	ss := &splitStore{isCold: isCold, at: make([]int, len(isCold)), all: make([]int, len(isCold))}
	var hotZoned, coldZoned []bool
	for ci, cold := range isCold {
		ss.all[ci] = ci
		if cold {
			ss.at[ci] = len(coldZoned)
			coldZoned = append(coldZoned, isZoned[ci])
		} else {
			ss.at[ci] = len(hotZoned)
			hotZoned = append(hotZoned, isZoned[ci])
		}
	}
	var err error
	if ss.hot, err = createDiskStore(cfg, segPath(cfg.Dir, name), len(hotZoned), hotZoned); err != nil {
		return nil, err
	}
	if ss.cold, err = createDiskStore(cfg, coldSegPath(cfg.Dir, name), len(coldZoned), coldZoned); err != nil {
		return nil, errors.Join(err, ss.hot.Close())
	}
	return ss, nil
}

// Append stores the row's hot and cold cells, each in its segment. The row
// is the backend's once appended (the tails keep it), so it is reordered in
// place — hot cells first, then cold — and each segment keeps its part.
func (ss *splitStore) Append(row []value.Value) error {
	ss.perm = append(ss.perm[:0], row...)
	nhot := ss.hot.ncols
	for ci, v := range ss.perm {
		if ss.isCold[ci] {
			row[nhot+ss.at[ci]] = v
		} else {
			row[ss.at[ci]] = v
		}
	}
	clear(ss.perm)
	if err := ss.hot.Append(row[:nhot:nhot]); err != nil {
		return err
	}
	return ss.cold.Append(row[nhot:])
}

// split maps the projection cols (nil: every column) onto the segments: the
// hot segment's positions of its hot columns and the cold segment's of its
// cold ones, in projection order. A projection of no column stays one: hot
// is then empty, not nil.
func (ss *splitStore) split(cols []int) (hot, cold []int) {
	if cols == nil {
		cols = ss.all
	}
	hot = make([]int, 0, len(cols))
	for _, c := range cols {
		if ss.isCold[c] {
			cold = append(cold, ss.at[c])
		} else {
			hot = append(hot, ss.at[c])
		}
	}
	return hot, cold
}

// readsHot reports whether a read of cols reads the hot segment: unless
// every column it names is cold (a read of no column reads the hot segment,
// which has the row count).
func readsHot(hot, cold []int) bool { return len(hot) > 0 || len(cold) == 0 }

func (ss *splitStore) Scan(lo, hi int, cols []int, f Filter, s *Scratch) ([][]value.Value, int64, error) {
	hot, cold := ss.split(cols)
	if len(cold) == 0 {
		return ss.hot.Scan(lo, hi, hot, f, s)
	}
	return ss.zip(cols, hot, cold, f, s, hi-lo, func(d *diskStore, dc []int) ([][]value.Value, int64, error) {
		return d.Scan(lo, hi, dc, nil, nil)
	})
}

func (ss *splitStore) Fetch(ids []int32, cols []int, f Filter, s *Scratch) ([][]value.Value, int64, error) {
	hot, cold := ss.split(cols)
	if len(cold) == 0 {
		return ss.hot.Fetch(ids, hot, f, s)
	}
	return ss.zip(cols, hot, cold, f, s, len(ids), func(d *diskStore, dc []int) ([][]value.Value, int64, error) {
		return d.Fetch(ids, dc, nil, nil)
	})
}

// zip serves a read of cols that names a cold column: read reads the same
// row ids from a segment, projected onto that segment's positions; the
// segments' rows are zipped into rows of cols, n at most, which f filters as
// they are added to the batch.
func (ss *splitStore) zip(cols, hot, cold []int, f Filter, s *Scratch, n int,
	read func(d *diskStore, dc []int) ([][]value.Value, int64, error)) ([][]value.Value, int64, error) {
	if cols == nil {
		cols = ss.all
	}
	var hrows [][]value.Value
	var phys int64
	if readsHot(hot, cold) {
		rows, p, err := read(ss.hot, hot)
		if err != nil {
			return nil, 0, err
		}
		hrows, phys = rows, p
	}
	crows, p, err := read(ss.cold, cold)
	if err != nil {
		return nil, 0, err
	}
	phys += p
	var own rowBatch
	b := s.batch(&own, n, len(cols), f)
	row := make([]value.Value, len(cols))
	for r, crow := range crows {
		h, c := 0, 0
		for k, ci := range cols {
			if ss.isCold[ci] {
				row[k] = crow[c]
				c++
			} else {
				row[k] = hrows[r][h]
				h++
			}
		}
		// The segments' batches are this call's own, so the cells may be
		// kept as they are: add copies the row into the batch's arena.
		if err := b.add(row, ss.all[:len(cols)], f); err != nil {
			return nil, 0, err
		}
	}
	return b.rows, phys, nil
}

func (ss *splitStore) NumRows() int { return ss.hot.NumRows() }

func (ss *splitStore) Size(cols []int) int64 {
	hot, cold := ss.split(cols)
	var n int64
	if readsHot(hot, cold) {
		n += ss.hot.Size(nil)
	}
	if len(cold) > 0 {
		n += ss.cold.Size(nil)
	}
	return n
}

func (ss *splitStore) Paged() bool { return true }

func (ss *splitStore) Flush() error { return errors.Join(ss.hot.Flush(), ss.cold.Flush()) }

func (ss *splitStore) Close() error { return errors.Join(ss.hot.Close(), ss.cold.Close()) }

func (ss *splitStore) IO() IOStats {
	io := ss.hot.IO()
	io.Add(ss.cold.IO())
	return io
}
