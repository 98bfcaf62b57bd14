package monomi

// Regression tests for the error-wrapping contract the wraperr analyzer
// (internal/lint) enforces statically: the typed sentinels the storage and
// transport layers export must survive every fmt.Errorf wrap between where
// they originate and where the application finally calls errors.Is/As —
// a single %v anywhere in the chain would silently break these matches.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wire"
)

// TestCorruptSegmentSurvivesClientStack corrupts a disk-backed encrypted
// segment under a live System and checks the failure surfaces at the top
// of the client stack — System.Query, through engine, server, and client
// wrapping — still errors.Is-matchable as storage.ErrCorruptSegment.
// diskOrdersSystem encrypts a 300-row table onto 512-byte disk pages behind
// a ~2-page block cache, so every query reads the segment files.
func diskOrdersSystem(t *testing.T) (*System, Options) {
	t.Helper()
	db := NewDatabase()
	db.MustCreateTable("orders",
		Col("o_id", Int), Col("o_cust", String), Col("o_total", Int))
	for i := 0; i < 300; i++ {
		db.MustInsert("orders", i, fmt.Sprintf("cust-%d", i%7), 10+i%90)
	}
	opts := DefaultOptions()
	opts.PaillierBits = 256
	opts.Backend = "disk"
	opts.DataDir = t.TempDir()
	opts.PageBytes = 512
	opts.BlockCacheBytes = 1024
	sys, err := Encrypt(db, Workload{
		"totals": "SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust",
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys, opts
}

func TestCorruptSegmentSurvivesClientStack(t *testing.T) {
	sys, opts := diskOrdersSystem(t)
	defer sys.Close()

	if _, err := sys.Query("SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust"); err != nil {
		t.Fatalf("pre-corruption query: %v", err)
	}

	// Smash a 64-byte run in the middle of every encrypted segment: far
	// past the header and metadata pages, inside scanned data pages.
	segs, err := filepath.Glob(filepath.Join(opts.DataDir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files in %s (err=%v)", opts.DataDir, err)
	}
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(seg, os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, 64)
		for i := range junk {
			junk[i] = 0xff
		}
		if _, err := f.WriteAt(junk, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	_, err = sys.Query("SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust")
	if err == nil {
		t.Fatal("query over corrupted segments succeeded")
	}
	if !errors.Is(err, storage.ErrCorruptSegment) {
		t.Fatalf("top-level error no longer wraps ErrCorruptSegment: %v", err)
	}
	var se *storage.SegmentError
	if !errors.As(err, &se) {
		t.Fatalf("top-level error lost the *SegmentError detail: %v", err)
	}
}

// TestCorruptSegmentUnderSubquerySurvivesClientStack corrupts the table a
// decorrelatable EXISTS drains — the subquery reaches the server whole, as
// RemoteSQL — and checks the failure of that drain is the statement's
// error, errors.Is-matchable as storage.ErrCorruptSegment at the top of the
// client stack and naming the inner table's segment. The engine used to
// read any failed drain as "not decorrelatable" and re-run the subquery
// naively for every outer row. A failed statement reports no engine.Stats,
// so SubqueryRuns ≤ 1 is pinned where it can be read (internal/engine,
// TestSubqueryDecorrelateErrorIsTheStatements); here the bound is physical:
// one failed statement reads at most one pass over the corrupted segment.
func TestCorruptSegmentUnderSubquerySurvivesClientStack(t *testing.T) {
	db := NewDatabase()
	db.MustCreateTable("orders", Col("o_id", Int), Col("o_cust", String), Col("o_total", Int))
	for i := 0; i < 300; i++ {
		db.MustInsert("orders", i, fmt.Sprintf("cust-%d", i%7), 10+i%90)
	}
	db.MustCreateTable("cust", Col("c_name", String), Col("c_tier", Int))
	for i := 0; i < 9; i++ {
		db.MustInsert("cust", fmt.Sprintf("cust-%d", i), i)
	}
	opts := DefaultOptions()
	opts.PaillierBits = 256
	opts.Backend = "disk"
	opts.DataDir = t.TempDir()
	opts.PageBytes = 512
	opts.BlockCacheBytes = 1024
	const sql = "SELECT c_name FROM cust WHERE EXISTS (SELECT 1 FROM orders WHERE o_cust = c_name AND o_total > 95) ORDER BY c_name"
	sys, err := Encrypt(db, Workload{"exists": sql}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := sys.Query(sql)
	if err != nil {
		t.Fatalf("pre-corruption query: %v", err)
	}
	if len(res.Data) != 6 || !strings.Contains(res.PlanText, "EXISTS (SELECT") {
		t.Fatalf("fixture drifted: %d rows, plan:\n%s", len(res.Data), res.PlanText)
	}

	seg := filepath.Join(opts.DataDir, "orders.seg")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, 64), fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	before := sys.Stats().PageReads
	_, err = sys.Query(sql)
	if !errors.Is(err, storage.ErrCorruptSegment) {
		t.Fatalf("query over a corrupted inner table: %v, want an error wrapping storage.ErrCorruptSegment", err)
	}
	var se *storage.SegmentError
	if !errors.As(err, &se) || filepath.Base(se.Path) != "orders.seg" {
		t.Fatalf("error does not name the inner table's segment: %v", err)
	}
	if reads, pass := sys.Stats().PageReads-before, fi.Size()/int64(opts.PageBytes); reads > pass {
		t.Errorf("failed statement read %d pages; one pass over orders.seg is %d", reads, pass)
	}
}

// TestClosedBackendSurvivesClientStack: a query that reaches a disk table
// after System.Close fails as storage.ErrClosed at the top of the stack —
// not as a corruption report about segment files that are intact.
func TestClosedBackendSurvivesClientStack(t *testing.T) {
	sys, _ := diskOrdersSystem(t)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := sys.Query("SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust")
	if !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("query after Close: %v, want an error wrapping storage.ErrClosed", err)
	}
	if errors.Is(err, storage.ErrCorruptSegment) {
		t.Fatalf("query after Close blames a healthy segment: %v", err)
	}
}

// TestRejectErrorSurvivesClientStack drives a real admission-control
// rejection through the network client and checks it stays matchable —
// by monomi.IsRejected and by errors.As — after every layer's wrapping.
func TestRejectErrorSurvivesClientStack(t *testing.T) {
	sys := exampleSystem(t)
	defer sys.Close()
	srv, err := sys.Serve("127.0.0.1:0", ServeConfig{MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	first, err := sys.ConnectRemote(srv.Addr().String())
	if err != nil {
		t.Fatalf("first connection: %v", err)
	}
	defer first.Close()

	_, err = sys.ConnectRemote(srv.Addr().String())
	if err == nil {
		t.Fatal("connection beyond MaxConns accepted")
	}
	if !IsRejected(err) {
		t.Fatalf("rejection not IsRejected-matchable: %v", err)
	}
	var re *transport.RejectError
	if !errors.As(err, &re) || re.Code != transport.CodeConnRejected {
		t.Fatalf("rejection lost its typed code: %v", err)
	}

	// The client layers wrap remote failures with %w ("client: remote x:
	// %w"); the sentinel must survive arbitrary depth of that discipline.
	wrapped := fmt.Errorf("client: remote scan: %w", fmt.Errorf("session: %w", err))
	if !IsRejected(wrapped) {
		t.Fatalf("IsRejected lost through %%w wrapping: %v", wrapped)
	}
}

// corruptingExecutor stands where the untrusted server does and replaces the
// last cell of the last result row — on either wire — before the client sees
// it.
type corruptingExecutor struct {
	inner client.Executor
	bad   value.Value
}

func (e *corruptingExecutor) Execute(q *ast.Query, params map[string]value.Value) (*server.Response, error) {
	resp, err := e.inner.Execute(q, params)
	if err != nil || len(resp.Result.Rows) == 0 {
		return resp, err
	}
	rows := append([][]value.Value(nil), resp.Result.Rows...)
	last := append([]value.Value(nil), rows[len(rows)-1]...)
	last[len(last)-1] = e.bad
	rows[len(rows)-1] = last
	out := *resp
	res := *resp.Result
	res.Rows = rows
	out.Result = &res
	return &out, nil
}

func (e *corruptingExecutor) ExecuteStream(q *ast.Query, params map[string]value.Value, w io.Writer) (*server.StreamStats, error) {
	resp, err := e.Execute(q, params)
	if err != nil {
		return nil, err
	}
	bw, err := wire.NewBatchWriter(w, resp.Result.Cols)
	if err != nil {
		return nil, err
	}
	// Several batches, so a remote client's decode workers each get some
	// and the corrupted row is in the last.
	for rows := resp.Result.Rows; len(rows) > 0; {
		n := min(len(rows), 300)
		if err := bw.WriteBatch(rows[:n]); err != nil {
			return nil, err
		}
		rows = rows[n:]
	}
	if err := bw.Close(); err != nil {
		return nil, err
	}
	return &server.StreamStats{Stats: resp.Result.Stats, WireBytes: bw.BytesWritten()}, nil
}

// TestNegativeSubstringSurvivesClientStack: SUBSTRING with a negative
// length used to slice out of range and panic in the trusted client's local
// engine. It must fail the query with engine.ErrNegativeSubstringLength —
// in process and over a served deployment, whose session keeps serving.
func TestNegativeSubstringSurvivesClientStack(t *testing.T) {
	sys := exampleSystem(t)
	srv, err := sys.Serve("127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := sys.ConnectRemote(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	for name, s := range map[string]*System{"in-process": sys, "remote": remote} {
		if _, err := s.Query(`SELECT substring(o_cust, 2, -1) FROM orders`); !errors.Is(err, engine.ErrNegativeSubstringLength) {
			t.Errorf("%s: err = %v, want engine.ErrNegativeSubstringLength", name, err)
		}
		rows, err := s.Query(`SELECT substring(o_cust, 2, 3) FROM orders WHERE o_id = 1`)
		if err != nil || len(rows.Data) != 1 || rows.Data[0][0] != "lic" {
			t.Errorf("%s: after the error, substring(o_cust, 2, 3) = %v, %v", name, rows, err)
		}
	}
}

// TestMalformedConcatSurvivesClientStack: a GROUP_CONCAT cell that is not a
// decodable blob used to fold to a silent NULL. It must fail the query with
// an error wrapping client.ErrMalformedResult that names the output — on an
// in-process and on a remote-built client, from the last decode worker's row
// range or batch — and leave no goroutine of the streamed pipeline or the
// decode fan-out behind.
func TestMalformedConcatSurvivesClientStack(t *testing.T) {
	db := NewDatabase()
	db.MustCreateTable("orders", Col("o_id", Int), Col("o_total", Int))
	for i := 0; i < 2500; i++ { // 2 500 groups: past the parallel-decode threshold
		db.MustInsert("orders", i, 10+i%90)
	}
	opts := DefaultOptions()
	opts.PaillierBits = 256
	opts.Parallelism = 4
	const sql = "SELECT o_id, SUM(o_total) FROM orders GROUP BY o_id"
	sys, err := Encrypt(db, Workload{"totals": sql}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.dep.Client.Greedy = true // push the GROUP BY, so sums ship as GROUP_CONCAT
	rows, err := sys.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rows.PlanText, "(concat)") {
		t.Fatalf("fixture no longer ships a group_concat output:\n%s", rows.PlanText)
	}

	before := runtime.NumGoroutine()
	for name, bad := range map[string]value.Value{
		"non-bytes cell":   value.NewInt(7),
		"undecodable blob": value.NewBytes([]byte{0xff, 0xff, 0xff}),
	} {
		corrupt := &corruptingExecutor{inner: sys.dep.Client.Srv, bad: bad}
		sys.dep.Client.SetExecutor(corrupt) // in process: Execute's rows
		remote := client.NewRemote(sys.dep.Keys, corrupt, sys.dep.DB.Meta, sys.dep.Client.Ctx, sys.dep.Net)
		remote.Greedy, remote.Parallelism = true, opts.Parallelism // remote-built: ExecuteStream's frames
		for dep, cl := range map[string]*client.Client{"in-process": sys.dep.Client, "remote": remote} {
			_, err := cl.Query(sql, nil)
			if !errors.Is(err, client.ErrMalformedResult) {
				t.Fatalf("%s, %s: %v, want an error wrapping client.ErrMalformedResult", name, dep, err)
			}
			if !strings.Contains(err.Error(), "output a0") {
				t.Errorf("%s, %s: error does not name the output: %v", name, dep, err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before the failing queries, %d after", before, n)
	}
}

// TestConcurrentQ1OneClient runs TPC-H Q1 — a shipped-rows result wide enough
// to fan out over the decode workers — from two goroutines on one System, so
// the race detector sees the shared compiled template, the key store's
// resolver and the per-worker cipher scratch and memos under real contention.
func TestConcurrentQ1OneClient(t *testing.T) {
	db, err := TPCH(0.0005, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.PaillierBits = 256
	opts.Parallelism = 2
	sys, err := Encrypt(db, Workload{"q1": mustTPCH(1)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	want, err := sys.Query(mustTPCH(1))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := sys.Query(mustTPCH(1))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got.Data, want.Data) {
					t.Errorf("concurrent Q1 returned different rows:\n got  %v\n want %v", got.Data, want.Data)
				}
			}
		}()
	}
	wg.Wait()
}
