package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/enc"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// bigFixture encrypts a scan-heavy table (DET columns only, so setup stays
// fast) for streaming-latency tests: a = i, b = i % mod.
func bigFixture(t testing.TB, rows, mod int) *Server {
	t.Helper()
	cat := storage.NewCatalog()
	tbl, err := cat.Create(storage.Schema{
		Name: "big",
		Cols: []storage.Column{
			{Name: "a", Type: storage.TInt},
			{Name: "b", Type: storage.TInt},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		tbl.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % mod))})
	}
	ks, err := enc.NewKeyStore([]byte("stream-test"), 256)
	if err != nil {
		t.Fatal(err)
	}
	design := &enc.Design{}
	design.Add(enc.ColumnItem("big", "a", enc.DET, value.Int))
	design.Add(enc.ColumnItem("big", "b", enc.DET, value.Int))
	db, err := enc.EncryptDatabase(cat, design, ks)
	if err != nil {
		t.Fatal(err)
	}
	return New(db, netsim.Default())
}

// drainWire decodes a full batch stream from buf.
func drainWire(t testing.TB, r io.Reader) ([]string, [][]value.Value) {
	t.Helper()
	br, err := wire.NewBatchReader(r)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]value.Value
	for {
		b, err := br.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return br.Cols(), rows
		}
		rows = append(rows, b...)
	}
}

// firstBatch pulls q's first batch straight from the server's engine and
// reports its size and the engine's counters at that moment: the work done
// before the first batch could ship, which is what pipelining is judged by.
func firstBatch(t testing.TB, srv *Server, q *ast.Query) (int, engine.Stats) {
	t.Helper()
	es, err := srv.Engine.ExecuteStream(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	b, err := es.Next()
	if err != nil {
		t.Fatal(err)
	}
	return len(b), es.Stats()
}

// sameWork checks a drained stream counted the work Execute counted, on
// every counter but BatchesStreamed: the stream pulls 1 024-row batches,
// Execute one batch per shard. UDF nanos are measured wall time, so where a
// crypto UDF runs (udf) the two executions legitimately differ in that
// counter too.
func sameWork(t testing.TB, what string, streamed, materialized engine.Stats, udf bool) {
	t.Helper()
	streamed.BatchesStreamed, materialized.BatchesStreamed = 0, 0
	if udf {
		streamed.UDFNanos, materialized.UDFNanos = 0, 0
	}
	if streamed != materialized {
		t.Errorf("%s: drained stream counted %+v, Execute %+v", what, streamed, materialized)
	}
}

// TestExecuteStreamMatchesExecute: the streamed wire must carry exactly
// the rows the materialized Execute returns — same columns, same order,
// same encodings — across plain scans, crypto-UDF aggregation, and empty
// results, and its drained Stats must equal Execute's.
func TestExecuteStreamMatchesExecute(t *testing.T) {
	srv, _ := fixture(t)
	group := srv.DB.Meta["t"].Groups[0]
	queries := []string{
		`SELECT k_det, row_id FROM t`,
		`SELECT k_det, group_concat(k_det) FROM t GROUP BY k_det`,
		`SELECT k_det, paillier_sum('` + group.Name + `', row_id) FROM t GROUP BY k_det`,
		`SELECT k_det FROM t WHERE k_det = 123456789`, // empty result
	}
	for _, sql := range queries {
		q := sqlparser.MustParse(sql)
		want, err := srv.Execute(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var buf bytes.Buffer
		st, err := srv.ExecuteStream(q, nil, &buf)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		wireLen := int64(buf.Len())
		cols, rows := drainWire(t, &buf)
		if len(cols) != len(want.Result.Cols) {
			t.Fatalf("%s: stream has %d cols, want %d", sql, len(cols), len(want.Result.Cols))
		}
		if len(rows) != len(want.Result.Rows) {
			t.Fatalf("%s: stream has %d rows, want %d", sql, len(rows), len(want.Result.Rows))
		}
		for i, wrow := range want.Result.Rows {
			for j, wv := range wrow {
				gv := rows[i][j]
				if wv.IsNull() != gv.IsNull() || (!wv.IsNull() && value.Compare(wv, gv) != 0) {
					t.Fatalf("%s: row %d col %d: %v != %v", sql, i, j, gv, wv)
				}
			}
		}
		if st.WireBytes != wireLen {
			t.Errorf("%s: StreamStats.WireBytes = %d, stream is %d", sql, st.WireBytes, wireLen)
		}
		if st.Rows != int64(len(rows)) {
			t.Errorf("%s: StreamStats.Rows = %d, shipped %d", sql, st.Rows, len(rows))
		}
		sameWork(t, sql, st.Stats, want.Result.Stats, strings.Contains(sql, "paillier_sum"))
	}
}

// TestTimeToFirstBatchBeatsServerTime is the pipelining acceptance test:
// the first encrypted batch is ready after one batch of the scan, not after
// the whole table — judged by the engine's RowsScanned at that moment — and
// the drained stream counts exactly the materialized Execute's work.
func TestTimeToFirstBatchBeatsServerTime(t *testing.T) {
	const rows, batch = 8000, engine.DefaultBatchSize
	srv := bigFixture(t, rows, 97)
	q := sqlparser.MustParse(`SELECT a_det, b_det FROM big`)
	var buf bytes.Buffer
	st, err := srv.ExecuteStream(q, nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches < rows/batch {
		t.Fatalf("stream produced %d batches over %d rows at batch %d", st.Batches, rows, batch)
	}
	n, first := firstBatch(t, srv, q)
	if n != batch || first.RowsScanned != batch {
		t.Fatalf("first batch of %d rows after scanning %d, want %d after %d: no pipelining",
			n, first.RowsScanned, batch, batch)
	}
	want, err := srv.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameWork(t, "scan", st.Stats, want.Result.Stats, false)
}

// joinBigFixture extends bigFixture with a dimension table whose DET join
// key shares big.b's key (same join group — the designer's JoinGroups do
// this for workload join columns), so the server can hash-join the two
// encrypted tables.
func joinBigFixture(t testing.TB, rows int) *Server {
	t.Helper()
	cat := storage.NewCatalog()
	big, err := cat.Create(storage.Schema{
		Name: "big",
		Cols: []storage.Column{
			{Name: "a", Type: storage.TInt},
			{Name: "b", Type: storage.TInt},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		big.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 97))})
	}
	dim, err := cat.Create(storage.Schema{
		Name: "dim",
		Cols: []storage.Column{
			{Name: "d_id", Type: storage.TInt},
			{Name: "d_tag", Type: storage.TInt},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 97; i++ {
		dim.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewInt(int64(i * 7))})
	}
	ks, err := enc.NewKeyStore([]byte("stream-join-test"), 256)
	if err != nil {
		t.Fatal(err)
	}
	design := &enc.Design{}
	design.Add(enc.ColumnItem("big", "a", enc.DET, value.Int))
	bKey := enc.ColumnItem("big", "b", enc.DET, value.Int)
	bKey.JoinGroup = "jk"
	design.Add(bKey)
	dKey := enc.ColumnItem("dim", "d_id", enc.DET, value.Int)
	dKey.JoinGroup = "jk"
	design.Add(dKey)
	design.Add(enc.ColumnItem("dim", "d_tag", enc.DET, value.Int))
	db, err := enc.EncryptDatabase(cat, design, ks)
	if err != nil {
		t.Fatal(err)
	}
	return New(db, netsim.Default())
}

// TestJoinTimeToFirstBatchBeatsServerTime is the multi-table pipelining
// acceptance test (the join-layer mirror of the single-table one above):
// with the streamed hash-join probe, the first joined encrypted batch is
// ready after the build side and one batch of the probe scan, not after the
// whole probe table — and the drained stream carries exactly the rows, and
// counts exactly the work, of the materialized Execute.
func TestJoinTimeToFirstBatchBeatsServerTime(t *testing.T) {
	const rows, batch = 24000, engine.DefaultBatchSize
	srv := joinBigFixture(t, rows)
	q := sqlparser.MustParse(`SELECT a_det, d_tag_det FROM big, dim WHERE b_det = d_id_det`)
	var buf bytes.Buffer
	st, err := srv.ExecuteStream(q, nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != rows {
		t.Fatalf("join stream shipped %d rows, want %d (every probe row matches one dim row)", st.Rows, rows)
	}
	if st.Batches < rows/batch {
		t.Fatalf("stream produced %d batches over %d rows at batch %d", st.Batches, rows, batch)
	}
	n, first := firstBatch(t, srv, q)
	if n == 0 || first.RowsScanned >= rows {
		t.Fatalf("first joined batch of %d rows after scanning %d of %d probe rows: join probe is not pipelined",
			n, first.RowsScanned, rows)
	}
	if first.RowsScanned > 97+rows/8 {
		t.Errorf("first joined batch after scanning %d rows: not batch-proportional (97 build + %d probe rows)",
			first.RowsScanned, rows)
	}
	want, err := srv.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, rowsGot := drainWire(t, &buf)
	if len(rowsGot) != len(want.Result.Rows) {
		t.Fatalf("stream has %d rows, Execute has %d", len(rowsGot), len(want.Result.Rows))
	}
	for i, wrow := range want.Result.Rows {
		for j, wv := range wrow {
			if value.Compare(wv, rowsGot[i][j]) != 0 {
				t.Fatalf("row %d col %d: %v != %v", i, j, rowsGot[i][j], wv)
			}
		}
	}
	sameWork(t, "join", st.Stats, want.Result.Stats, false)
}

// TestExecuteStreamAbandoned: a client that stops reading mid-stream (its
// LIMIT satisfied) closes the pipe; the server's scan must abort promptly,
// charge only the work done, and leave no goroutine behind.
func TestExecuteStreamAbandoned(t *testing.T) {
	const rows = 50000
	srv := bigFixture(t, rows, 97)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	q := sqlparser.MustParse(`SELECT a_det FROM big`)
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		pr, pw := io.Pipe()
		done := make(chan *StreamStats, 1)
		errc := make(chan error, 1)
		go func() {
			st, err := srv.ExecuteStream(q, nil, pw)
			errc <- err
			done <- st
			pw.CloseWithError(err)
		}()
		br, err := wire.NewBatchReader(pr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := br.Next(); err != nil {
			t.Fatal(err)
		}
		// Abandon: one batch was enough.
		pr.CloseWithError(fmt.Errorf("client satisfied"))
		if err := <-errc; err == nil {
			t.Fatal("abandoned stream returned no error")
		}
		st := <-done
		if st.Rows >= rows {
			t.Fatalf("abandoned stream still shipped all %d rows", st.Rows)
		}
		if st.Stats.RowsScanned <= 0 || st.Stats.RowsScanned >= rows {
			t.Errorf("abandoned stream counted %d of %d rows scanned, want the work done so far", st.Stats.RowsScanned, rows)
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
		t.Fatalf("goroutines grew from %d to %d: abandoned streams leak", before, after)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestAbandonedStreamStats: a stream the server stops early — its writer
// fails, or its context is cancelled, after the first batch — must still
// report all the work its morsel workers did, readahead whose batches never
// shipped included. A counting filter sees each scanned row exactly once,
// so RowsScanned must equal its count.
func TestAbandonedStreamStats(t *testing.T) {
	const rows = 50000
	srv := bigFixture(t, rows, 97)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var evaluated atomic.Int64
	srv.Engine.RegisterScalar("counted", func(*engine.Stats, []value.Value) (value.Value, error) {
		evaluated.Add(1)
		return value.NewInt(1), nil
	})
	q := sqlparser.MustParse(`SELECT a_det FROM big WHERE counted(a_det) = 1`)
	// Each frame is one Write: the header, then one per batch.
	stops := map[string]func(cancel func()) io.Writer{
		"writer fails": func(func()) io.Writer {
			frames := 0
			return writerFunc(func(p []byte) (int, error) {
				if frames++; frames > 2 {
					return 0, fmt.Errorf("consumer gone")
				}
				return len(p), nil
			})
		},
		"ctx cancelled": func(cancel func()) io.Writer {
			frames := 0
			return writerFunc(func(p []byte) (int, error) {
				if frames++; frames == 2 {
					cancel()
				}
				return len(p), nil
			})
		},
	}
	for name, stop := range stops {
		evaluated.Store(0)
		ctx, cancel := context.WithCancel(context.Background())
		st, err := srv.ExecuteStreamCtx(ctx, q, nil, stop(cancel))
		cancel()
		if err == nil {
			t.Fatalf("%s: stopped stream returned no error", name)
		}
		if st.Batches == 0 || st.Stats.RowsScanned >= rows {
			t.Errorf("%s: %d batches, %d of %d rows scanned: the stream did not stop early",
				name, st.Batches, st.Stats.RowsScanned, rows)
		}
		if n := evaluated.Load(); st.Stats.RowsScanned != n {
			t.Errorf("%s: StreamStats counts %d rows scanned, the filter evaluated %d", name, st.Stats.RowsScanned, n)
		}
	}
}

// groupedFixture encrypts a table with many groups and one HOM column, so
// grouped streamed-wire queries have real per-group Paillier finalization
// work to pipeline.
func groupedFixture(t testing.TB, rows, groups int) *Server {
	t.Helper()
	cat := storage.NewCatalog()
	tbl, err := cat.Create(storage.Schema{
		Name: "grp",
		Cols: []storage.Column{
			{Name: "g", Type: storage.TInt},
			{Name: "v", Type: storage.TInt},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		tbl.MustInsert([]value.Value{value.NewInt(int64(i % groups)), value.NewInt(int64(i))})
	}
	ks, err := enc.NewKeyStore([]byte("grouped-stream-test"), 256)
	if err != nil {
		t.Fatal(err)
	}
	design := &enc.Design{GroupedAddition: true}
	design.Add(enc.ColumnItem("grp", "g", enc.DET, value.Int))
	design.Add(enc.ColumnItem("grp", "v", enc.HOM, value.Int))
	db, err := enc.EncryptDatabase(cat, design, ks)
	if err != nil {
		t.Fatal(err)
	}
	return New(db, netsim.Default())
}

// countedSum wraps a PAILLIER_SUM state to count its Result calls: the
// expensive modular products a grouped query's finalization performs.
type countedSum struct {
	engine.AggState
	results *atomic.Int64
}

func (c *countedSum) Merge(other engine.AggState) error {
	return c.AggState.Merge(other.(*countedSum).AggState)
}

func (c *countedSum) Result() (value.Value, error) {
	c.results.Add(1)
	return c.AggState.Result()
}

// TestGroupedTimeToFirstBatchBeatsServerTime is the grouped-emission
// acceptance test: with streamed grouped emission, the first batch of
// finalized groups — each carrying expensive Paillier Result work — is
// ready after one batch of finalization, not after all of it: when it is
// pulled, exactly one batch's worth of PAILLIER_SUM Result calls has run.
// The drained stream must still carry exactly the rows, and count the work,
// Execute does.
func TestGroupedTimeToFirstBatchBeatsServerTime(t *testing.T) {
	const rows, groups, batch = 5000, 2500, engine.DefaultBatchSize
	srv := groupedFixture(t, rows, groups)
	group := srv.DB.Meta["grp"].Groups[0]
	q := sqlparser.MustParse(
		`SELECT g_det, paillier_sum('` + group.Name + `', row_id) FROM grp GROUP BY g_det`)
	var buf bytes.Buffer
	st, err := srv.ExecuteStream(q, nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != groups {
		t.Fatalf("grouped stream shipped %d rows, want %d groups", st.Rows, groups)
	}
	if st.Batches < groups/batch {
		t.Fatalf("grouped stream produced %d batches over %d groups at batch %d", st.Batches, groups, batch)
	}
	// The accumulation (full scan) is shared; what pipelines is the
	// 2 500-group Paillier finalization, one batch of groups at a time.
	var results atomic.Int64
	srv.Engine.RegisterAgg("paillier_sum", func(es *engine.Stats) engine.AggState {
		return &countedSum{AggState: srv.newPaillierSum(es), results: &results}
	})
	n, _ := firstBatch(t, srv, q)
	if got := results.Load(); n != batch || got != batch {
		t.Fatalf("first grouped batch of %d rows after %d of %d PAILLIER_SUM finalizations, want %d after %d",
			n, got, groups, batch, batch)
	}
	want, err := srv.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, rowsGot := drainWire(t, &buf)
	if len(rowsGot) != len(want.Result.Rows) {
		t.Fatalf("stream has %d rows, Execute has %d", len(rowsGot), len(want.Result.Rows))
	}
	for i, wrow := range want.Result.Rows {
		for j, wv := range wrow {
			if value.Compare(wv, rowsGot[i][j]) != 0 {
				t.Fatalf("row %d col %d: %v != %v", i, j, rowsGot[i][j], wv)
			}
		}
	}
	sameWork(t, "grouped", st.Stats, want.Result.Stats, true)
}

// TestDistinctTimeToFirstBatchBeatsServerTime: streamed DISTINCT emits
// first occurrences as the scan discovers them (seen-set, not a
// materialized keep-bitmap), so the first encrypted batch of distinct
// rows is ready after a batch-proportional share of the scan — at
// GOMAXPROCS 4, where the morsel producers feed the merger, with drained
// counters equal to the materialized execution's.
func TestDistinctTimeToFirstBatchBeatsServerTime(t *testing.T) {
	const rows, distinct = 16000, 4000
	srv := bigFixture(t, rows, distinct)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	q := sqlparser.MustParse(`SELECT DISTINCT b_det FROM big`)
	var buf bytes.Buffer
	st, err := srv.ExecuteStream(q, nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != distinct {
		t.Fatalf("DISTINCT stream shipped %d rows, want %d", st.Rows, distinct)
	}
	n, first := firstBatch(t, srv, q)
	if n == 0 || first.RowsScanned >= rows {
		t.Fatalf("first DISTINCT batch of %d rows after scanning %d of %d: streamed DISTINCT is not pipelined",
			n, first.RowsScanned, rows)
	}
	if first.RowsScanned > rows/8 {
		t.Errorf("first DISTINCT batch after scanning %d of %d rows: not batch-proportional", first.RowsScanned, rows)
	}
	want, err := srv.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameWork(t, "sharded DISTINCT", st.Stats, want.Result.Stats, false)
	_, rowsGot := drainWire(t, &buf)
	if len(rowsGot) != len(want.Result.Rows) {
		t.Fatalf("stream has %d rows, Execute has %d", len(rowsGot), len(want.Result.Rows))
	}
	for i, wrow := range want.Result.Rows {
		if value.Compare(wrow[0], rowsGot[i][0]) != 0 {
			t.Fatalf("row %d: %v != %v", i, rowsGot[i][0], wrow[0])
		}
	}
}

// TestShardedWireStreamMatchesSequential pins the wire-level contract of
// the morsel producers: over a table of three morsels, the framed byte
// stream and its counters at GOMAXPROCS 2 and 4 must be identical — byte
// for byte — to one worker's, across plain, filtered, DISTINCT, and grouped
// shapes (morsels sit on the batch grid, so even frame boundaries
// coincide).
func TestShardedWireStreamMatchesSequential(t *testing.T) {
	const rows = 20000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv := bigFixture(t, rows, 97)
	for _, sql := range []string{
		`SELECT a_det, b_det FROM big`,
		`SELECT a_det FROM big WHERE b_det = 13`,
		`SELECT DISTINCT b_det FROM big`,
		`SELECT b_det, COUNT(*) FROM big GROUP BY b_det`,
	} {
		q := sqlparser.MustParse(sql)
		runtime.GOMAXPROCS(1)
		var seq bytes.Buffer
		seqSt, err := srv.ExecuteStream(q, nil, &seq)
		if err != nil {
			t.Fatalf("p=1 %s: %v", sql, err)
		}
		for _, p := range []int{2, 4} {
			runtime.GOMAXPROCS(p)
			var got bytes.Buffer
			st, err := srv.ExecuteStream(q, nil, &got)
			if err != nil {
				t.Fatalf("p=%d %s: %v", p, sql, err)
			}
			if !bytes.Equal(got.Bytes(), seq.Bytes()) {
				t.Errorf("p=%d %s: wire stream differs from sequential puller (%d vs %d bytes)",
					p, sql, got.Len(), seq.Len())
			}
			if st.Stats != seqSt.Stats || st.Batches != seqSt.Batches {
				t.Errorf("p=%d %s: stream stats (%+v, %d batches) != sequential (%+v, %d)",
					p, sql, st.Stats, st.Batches, seqSt.Stats, seqSt.Batches)
			}
		}
	}
}
