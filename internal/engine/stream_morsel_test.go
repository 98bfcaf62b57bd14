package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sqlparser"
	"repro/internal/value"
)

// Morsel-driven single-stream production: ExecuteStream's batches may be
// produced by GOMAXPROCS workers feeding the morsel-order merger, but the
// stream a consumer sees must be indistinguishable from one worker's — same
// rows, same order, same batch frames, same Stats. Close must cancel and
// join every producer; Stats must be morsel-merged exactly once; LIMIT must
// bound worker readahead; no more than GOMAXPROCS producers run.

// shardStreamQueries covers every pipelined producer shape: plain and
// filtered scans, expression projection, streaming DISTINCT (with and
// without LIMIT), grouped emission (builtin, UDF, HAVING, implicit single
// group, LIMIT), the streamed join probe, and streamed top-N.
var shardStreamQueries = []string{
	`SELECT f_id, f_val FROM facts`,
	`SELECT f_id FROM facts WHERE f_val > 500`,
	`SELECT f_id, f_val * 2 + 1 FROM facts WHERE f_val < 900`,
	`SELECT f_id FROM facts WHERE f_val > 500 LIMIT 100`,
	`SELECT f_id FROM facts LIMIT 0`,
	`SELECT DISTINCT f_tag FROM facts`,
	`SELECT DISTINCT f_tag, f_dim FROM facts WHERE f_val > 200`,
	`SELECT DISTINCT f_tag FROM facts LIMIT 2`,
	`SELECT f_dim, SUM(f_val), COUNT(*) FROM facts GROUP BY f_dim`,
	`SELECT f_dim, my_sum(f_val) FROM facts GROUP BY f_dim`,
	`SELECT f_dim, SUM(f_val) s FROM facts GROUP BY f_dim HAVING s > 3000`,
	`SELECT f_dim, COUNT(*) FROM facts GROUP BY f_dim LIMIT 10`,
	`SELECT SUM(f_val), COUNT(*) FROM facts WHERE f_val > 100000`,
	`SELECT d_name, f_id FROM facts, dims WHERE f_dim = d_id AND f_val > 400`,
	`SELECT d_name, SUM(f_val) FROM facts, dims WHERE f_dim = d_id GROUP BY d_name`,
	`SELECT f_id, f_val FROM facts WHERE f_val < 900 ORDER BY f_val DESC, f_id LIMIT 37`,
}

// drainFrames collects a stream's batches without merging them, so frame
// boundaries are observable.
func drainFrames(t testing.TB, s *ResultStream) [][][]value.Value {
	t.Helper()
	var frames [][][]value.Value
	for {
		b, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return frames
		}
		frames = append(frames, b)
	}
}

func renderFrames(frames [][][]value.Value, withBounds bool) string {
	var b []byte
	for _, f := range frames {
		if withBounds {
			b = append(b, fmt.Sprintf("-- %d\n", len(f))...)
		}
		for _, row := range f {
			for j, v := range row {
				if j > 0 {
					b = append(b, '|')
				}
				b = append(b, v.String()...)
			}
			b = append(b, '\n')
		}
	}
	return string(b)
}

// TestShardedStreamMatchesSequentialPuller is the identity test: across
// every producer shape, the stream at GOMAXPROCS > 1 must emit exactly the
// rows, batch frames and drained Stats of the one-worker stream — morsel
// boundaries do not depend on the worker count, so neither do the chains.
func TestShardedStreamMatchesSequentialPuller(t *testing.T) {
	e := parallelFixture(t, 2000)
	registerMySum(e)
	for _, sql := range shardStreamQueries {
		q := sqlparser.MustParse(sql)
		for _, bs := range []int{7, 64} {
			procs(t, 1)
			e.batchSize = bs
			s, err := e.ExecuteStream(q, nil)
			if err != nil {
				t.Fatalf("bs=%d p=1 %s: %v", bs, sql, err)
			}
			seq := drainFrames(t, s)
			seqStats := s.Stats()
			for _, p := range []int{2, 4, 8} {
				procs(t, p)
				s, err := e.ExecuteStream(q, nil)
				if err != nil {
					t.Fatalf("bs=%d p=%d %s: %v", bs, p, sql, err)
				}
				got := drainFrames(t, s)
				if g, w := renderFrames(got, true), renderFrames(seq, true); g != w {
					t.Errorf("bs=%d p=%d %s diverges from sequential puller\ngot:\n%s\nwant:\n%s", bs, p, sql, g, w)
				}
				if q.Limit < 0 {
					// Drained without a limit, the morsel-merged charges
					// must telescope to exactly the one-worker stream's.
					if st, want := s.Stats(), seqStats; st != want {
						t.Errorf("bs=%d p=%d %s: drained stats %+v != sequential %+v", bs, p, sql, st, want)
					}
				}
			}
		}
	}
}

// TestShardedStreamStatsNoDoubleCount extends the PR 2 no-double-count
// regression to the multi-producer stream: a drained multi-morsel stream must
// charge each row and byte exactly once — identical totals at every
// GOMAXPROCS, including the batch count (morsels are whole batches).
func TestShardedStreamStatsNoDoubleCount(t *testing.T) {
	const rows = 2000
	e := parallelFixture(t, rows)
	tbl, err := e.Cat.Table("facts")
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`SELECT f_id, f_val FROM facts`,
		`SELECT f_id FROM facts WHERE f_val > 500`,
		`SELECT DISTINCT f_tag FROM facts`,
		`SELECT f_dim, SUM(f_val) FROM facts GROUP BY f_dim`,
	} {
		q := sqlparser.MustParse(sql)
		for _, p := range []int{1, 4} {
			procs(t, p)
			e.batchSize = 64
			s, err := e.ExecuteStream(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			frames := drainFrames(t, s)
			st := s.Stats()
			if st.RowsScanned != rows || st.BytesScanned != tbl.Bytes {
				t.Errorf("p=%d %s: scan charges %d rows / %d bytes, want exactly %d / %d",
					p, sql, st.RowsScanned, st.BytesScanned, rows, tbl.Bytes)
			}
			if want := int64((rows + 63) / 64); st.BatchesStreamed != want {
				t.Errorf("p=%d %s: BatchesStreamed = %d, want %d", p, sql, st.BatchesStreamed, want)
			}
			emitted := 0
			for _, f := range frames {
				emitted += len(f)
			}
			if st.RowsOut != int64(emitted) {
				t.Errorf("p=%d %s: RowsOut = %d, emitted %d", p, sql, st.RowsOut, emitted)
			}
		}
	}
}

// TestShardedStreamCloseNoLeak abandons multi-morsel streams mid-flight at GOMAXPROCS 4
// (the regression the merger's cancellation path must survive): Close must
// cancel the in-flight producers, join them, and fold the stats of the
// work they actually performed — repeatedly, without growing the
// process's goroutine count.
func TestShardedStreamCloseNoLeak(t *testing.T) {
	const rows = 8000
	e := parallelFixture(t, rows)
	procs(t, 4)
	e.batchSize = 32
	queries := []string{
		`SELECT f_id FROM facts WHERE f_val >= 0`,
		`SELECT DISTINCT f_tag, f_dim FROM facts`,
		`SELECT d_name, f_id FROM facts, dims WHERE f_dim = d_id`,
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		for _, sql := range queries {
			s, err := e.ExecuteStream(sqlparser.MustParse(sql), nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Next(); err != nil {
				t.Fatal(err)
			}
			s.Close()
			st := s.Stats()
			if st.RowsScanned == 0 {
				t.Fatal("abandoned stream folded no charges for the work performed")
			}
			if st.RowsScanned >= rows+100 {
				t.Fatalf("abandoned stream scanned everything (%d rows): workers not canceled", st.RowsScanned)
			}
			// Next after Close stays nil without error.
			if b, err := s.Next(); b != nil || err != nil {
				t.Fatalf("post-Close Next = (%v, %v)", b, err)
			}
		}
	}
	var after int
	for i := 0; i < 20; i++ {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after > before+2 {
		t.Fatalf("goroutines grew from %d to %d: morsel streams leak producers", before, after)
	}
}

// TestShardedStreamLimit pins the LIMIT contract across morsel producers:
// exact rows (limit mid-batch, limit on a batch boundary, limit past the
// result, LIMIT 0), and bounded readahead — no worker may scan past the
// batches needed for its own `limit` output rows.
func TestShardedStreamLimit(t *testing.T) {
	const rows = 8000
	e := parallelFixture(t, rows)
	for _, tc := range []struct {
		limit, wantRows int
	}{
		{0, 0},
		{70, 70},   // straddles a batch boundary
		{64, 64},   // exactly one batch
		{128, 128}, // exactly two batches
		{9000, rows},
	} {
		sql := fmt.Sprintf(`SELECT f_id FROM facts LIMIT %d`, tc.limit)
		q := sqlparser.MustParse(sql)
		procs(t, 4)
		e.batchSize = 64
		s, err := e.ExecuteStream(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		frames := drainFrames(t, s)
		s.Close()
		n := 0
		for _, f := range frames {
			for _, row := range f {
				if row[0].AsInt() != int64(n) {
					t.Fatalf("%s: row %d = %v (order broken)", sql, n, row[0])
				}
				n++
			}
		}
		if n != tc.wantRows {
			t.Errorf("%s delivered %d rows", sql, n)
		}
		st := s.Stats()
		if tc.limit == 0 {
			if st.RowsScanned != 0 {
				t.Errorf("LIMIT 0 scanned %d rows", st.RowsScanned)
			}
			continue
		}
		// Each worker needs at most ceil(limit/bs) scan batches before its
		// production cap stops it; the cancel signal can only shrink that.
		maxScan := int64(4 * ((tc.limit + 63) / 64) * 64)
		if maxScan > rows {
			maxScan = rows
		}
		if st.RowsScanned > maxScan {
			t.Errorf("%s: scanned %d rows, readahead bound is %d", sql, st.RowsScanned, maxScan)
		}
	}
}

// countingUDF counts Result invocations through a shared atomic, proving
// which groups were actually finalized.
type countingUDF struct {
	sum     int64
	results *int64
}

func (u *countingUDF) Add(args []value.Value) error { u.sum += args[0].AsInt(); return nil }
func (u *countingUDF) Merge(o AggState) error       { u.sum += o.(*countingUDF).sum; return nil }
func (u *countingUDF) Result() (value.Value, error) {
	atomic.AddInt64(u.results, 1)
	return value.NewInt(u.sum), nil
}

// TestGroupedStreamLazyFinalization pins grouped emission's defining
// property: groups finalize one output batch at a time, so after the first
// batch only ~batch-size Result calls have happened, and a LIMIT leaves
// the cut-off groups' (in production: Paillier) finalization unperformed.
func TestGroupedStreamLazyFinalization(t *testing.T) {
	e := parallelFixture(t, 3000) // ~100 distinct f_dim groups
	var results int64
	e.RegisterAgg("counted_sum", func(st *Stats) AggState { return &countingUDF{results: &results} })
	q := sqlparser.MustParse(`SELECT f_dim, counted_sum(f_val) FROM facts GROUP BY f_dim`)
	procs(t, 4)
	e.batchSize = 8

	s, err := e.ExecuteStream(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Next()
	if err != nil || len(b) != 8 {
		t.Fatalf("first grouped batch: %d rows, err %v", len(b), err)
	}
	if n := atomic.LoadInt64(&results); n != 8 {
		t.Fatalf("first batch finalized %d groups, want 8 (lazy emission)", n)
	}
	rest := drainFrames(t, s)
	total := 8
	for _, f := range rest {
		total += len(f)
	}
	if n := atomic.LoadInt64(&results); n != int64(total) {
		t.Errorf("drained stream finalized %d groups for %d rows", n, total)
	}

	atomic.StoreInt64(&results, 0)
	lq := sqlparser.MustParse(`SELECT f_dim, counted_sum(f_val) FROM facts GROUP BY f_dim LIMIT 10`)
	s, err = e.ExecuteStream(lq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if frames := drainFrames(t, s); len(frames) == 0 {
		t.Fatal("LIMIT 10 grouped stream emitted nothing")
	}
	if n := atomic.LoadInt64(&results); n >= 100 || n < 10 {
		t.Errorf("LIMIT 10 finalized %d groups, want ≥10 and far fewer than all (~100)", n)
	}
}

// TestShardedStreamError: a worker's error must surface to the consumer
// with the sequential path's message, and the stream must still join every
// producer (raced in CI).
func TestShardedStreamError(t *testing.T) {
	e := parallelFixture(t, 2000)
	e.RegisterScalar("explode", func(st *Stats, args []value.Value) (value.Value, error) {
		if args[0].AsInt() == 1777 {
			return value.Value{}, fmt.Errorf("engine: explode(1777)")
		}
		return args[0], nil
	})
	q := sqlparser.MustParse(`SELECT explode(f_id) FROM facts`)
	e.batchSize = 16
	procs(t, 1)
	s, err := e.ExecuteStream(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	var seqErr error
	for {
		b, err := s.Next()
		if err != nil {
			seqErr = err
			break
		}
		if b == nil {
			break
		}
	}
	if seqErr == nil {
		t.Fatal("sequential stream did not error")
	}
	procs(t, 4)
	s, err = e.ExecuteStream(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		b, err := s.Next()
		if err != nil {
			if err.Error() != seqErr.Error() {
				t.Fatalf("multi-worker error %q, one-worker %q", err, seqErr)
			}
			return
		}
		if b == nil {
			t.Fatal("multi-worker stream swallowed the error")
		}
	}
}

// TestMorselGoroutineBound: a block of 50+ morsels, drained by Execute
// (rows and groups) and streamed then abandoned after its first batch, runs
// on at most GOMAXPROCS producer goroutines — not one per morsel — and after
// the drain or Close no goroutine it started is left.
func TestMorselGoroutineBound(t *testing.T) {
	const rows = 4000 // 63 morsels of 64 rows at batch 8
	e := parallelFixture(t, rows)
	e.batchSize = 8
	procs(t, 4)
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	e.RegisterScalar("peak", func(st *Stats, args []value.Value) (value.Value, error) {
		for n := int64(runtime.NumGoroutine()); ; {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		return args[0], nil
	})
	if k := (&execCtx{eng: e}).morselCount(rows); k < 50 {
		t.Fatalf("%d rows cut into %d morsels, want 50+", rows, k)
	}
	check := func(what string) {
		t.Helper()
		if got := peak.Load() - int64(base); got > 4 {
			t.Errorf("%s: %d goroutines beyond the %d before it, GOMAXPROCS is 4", what, got, base)
		}
		var after int
		for i := 0; i < 20; i++ {
			if after = runtime.NumGoroutine(); after <= base {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("%s: goroutines grew from %d to %d", what, base, after)
	}
	for _, sql := range []string{
		`SELECT f_id FROM facts WHERE peak(f_id) >= 0`,
		`SELECT f_dim, SUM(f_val) FROM facts WHERE peak(f_id) >= 0 GROUP BY f_dim`,
	} {
		peak.Store(0)
		if _, err := e.Execute(sqlparser.MustParse(sql), nil); err != nil {
			t.Fatal(err)
		}
		check("drained " + sql)
	}
	peak.Store(0)
	s, err := e.ExecuteStream(sqlparser.MustParse(`SELECT f_id FROM facts WHERE peak(f_id) >= 0`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := s.Next(); err != nil || len(b) == 0 {
		t.Fatalf("first batch: %d rows, %v", len(b), err)
	}
	s.Close()
	check("abandoned stream")
}
