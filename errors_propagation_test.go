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
	"syscall"
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
	opts.pageBytes = 512
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

	// Smash a 64-byte run in the middle of every encrypted segment, inside
	// scanned data pages.
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
// the failed statement reads no more of the inner table's pages than one
// drain of it does.
//
// The disk load seals orders in o_total order (o_total's OPE column is the
// workload's one range, so it clusters), and the drain skips the pages whose
// zone rules out `o_total > 95`: it reads the sealed pages from the one
// holding row 288, the first of the twelve rows with o_total 96 to 99, to
// the last. Pages of 256 bytes hold fewer than twelve rows, so row 288 is on
// a sealed page, not in the unsealed tail, served from memory. The page
// smashed is the last sealed one, so the failed drain reads every page a
// whole drain reads, and a second run of the subquery must read the smashed
// page again: the cache keeps only pages that verify.
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
	opts.pageBytes = 256
	opts.BlockCacheBytes = 1024
	const sql = "SELECT c_name FROM cust WHERE EXISTS (SELECT 1 FROM orders WHERE o_cust = c_name AND o_total > 95) ORDER BY c_name"
	// The same drain over the low totals reads more pages than the 4-page
	// block cache holds and none the real drain reads, so it leaves the
	// cache without any of them; the zones keep it off the smashed page.
	evict := strings.Replace(sql, "o_total > 95", "o_total < 30", 1)
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

	tb, err := sys.dep.DB.Cat.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	// drainReads is the orders pages the statement sql looks up and does
	// not find in the block cache, emptied of the drain's pages first. A
	// miss is a read of the medium, counted whether or not the page
	// verifies.
	drainReads := func() (int64, error) {
		if _, err := sys.Query(evict); err != nil {
			return 0, fmt.Errorf("query whose zones skip the drain's pages: %w", err)
		}
		before := tb.IO().CacheMisses
		_, err := sys.Query(sql)
		return tb.IO().CacheMisses - before, err
	}
	drain, err := drainReads()
	if err != nil || drain == 0 {
		t.Fatalf("fixture drifted: one drain read %d orders pages (%v)", drain, err)
	}

	// A scan charges a sealed page to the read holding its first row, so a
	// scan of every row charges the sealed pages up to the end of the last
	// one. Reading only o_total_ope keeps the count to orders.seg, which
	// holds it.
	total := []int{tb.Schema.ColIndex("o_total_ope")}
	if _, p, err := tb.FetchCols([]int32{288}, total, nil, nil); err != nil || p == 0 {
		t.Fatalf("fixture drifted: row 288 is not on a sealed page (charged %d, %v)", p, err) // a fetch charges the pages it pins
	}
	_, end, err := tb.ScanCols(0, tb.NumRows(), total, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(opts.DataDir, "orders.seg"), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// The last sealed page's header: its row count, used length and CRC.
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, 12), end-int64(opts.pageBytes)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reads, err := drainReads()
	if !errors.Is(err, storage.ErrCorruptSegment) {
		t.Fatalf("query over a corrupted inner table: %v, want an error wrapping storage.ErrCorruptSegment", err)
	}
	var se *storage.SegmentError
	if !errors.As(err, &se) || filepath.Base(se.Path) != "orders.seg" {
		t.Fatalf("error does not name the inner table's segment: %v", err)
	}
	if reads > drain {
		t.Errorf("failed statement read %d orders pages; one drain reads %d", reads, drain)
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

// TestSystemCloseReturnsCatalogError: System.Close reports the encrypted
// catalog's Close error instead of dropping it. The failing table's segment
// is /dev/full, so writing its tail page fails with ENOSPC.
func TestSystemCloseReturnsCatalogError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	sys, _ := diskOrdersSystem(t)
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "full.seg")); err != nil {
		t.Fatal(err)
	}
	full, err := storage.NewCatalogWith(storage.BackendConfig{Kind: storage.BackendDisk, Dir: dir}).
		Create(storage.Schema{Name: "full", Cols: []storage.Column{{Name: "x", Type: storage.TInt}}})
	if err != nil {
		t.Fatal(err)
	}
	full.MustInsert([]value.Value{value.NewInt(1)})
	sys.dep.DB.Cat.Put(full)
	if err := sys.Close(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Close over a full medium: %v, want ENOSPC", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // four decode workers
	db := NewDatabase()
	db.MustCreateTable("orders", Col("o_id", Int), Col("o_total", Int))
	for i := 0; i < 2500; i++ { // 2 500 groups: past the parallel-decode threshold
		db.MustInsert("orders", i, 10+i%90)
	}
	opts := DefaultOptions()
	opts.PaillierBits = 256
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
		remote.Greedy = true // remote-built: ExecuteStream's frames
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

// TestDamagedColdSegment: a table split into hot and cold segments fails a
// statement that reads a damaged cold segment with an error that is
// errors.Is storage.ErrCorruptSegment and names the cold file in a
// *storage.SegmentError — in process and served over TCP — while statements
// that read only hot columns still succeed. After Close, a read of either
// file fails with storage.ErrClosed, and no goroutine is left behind.
func TestDamagedColdSegment(t *testing.T) {
	before := runtime.NumGoroutine()
	db := NewDatabase()
	db.MustCreateTable("orders", Col("o_id", Int), Col("o_cust", String), Col("o_total", Int), Col("o_note", String))
	for i := 0; i < 300; i++ {
		db.MustInsert("orders", i, fmt.Sprintf("cust-%d", i%7), 10+i%90, fmt.Sprintf("note %d", i))
	}
	opts := DefaultOptions()
	opts.PaillierBits = 256
	opts.Backend, opts.DataDir = "disk", t.TempDir()
	opts.pageBytes, opts.BlockCacheBytes = 512, 1024
	const hot = "SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust"
	const cold = "SELECT o_id, o_note FROM orders WHERE o_total > 20"
	const coldOnly = "SELECT o_note FROM orders"
	sys, err := Encrypt(db, Workload{"totals": hot}, opts)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := sys.dep.DB.Cat.Table("orders")
	if err != nil || !strings.Contains(fmt.Sprint(tb.ColdColumns()), "o_note_rnd") {
		t.Fatalf("o_note is not cold: %v (%v)", tb.ColdColumns(), err)
	}
	srv, err := sys.Serve("127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sys.ConnectRemote(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sides := map[string]*System{"in process": sys, "remote": remote}
	for name, s := range sides {
		if _, err := s.Query(cold); err != nil {
			t.Fatalf("%s, before the damage: %v", name, err)
		}
	}

	seg := filepath.Join(opts.DataDir, "orders.cold.seg")
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

	for name, s := range sides {
		_, err := s.Query(cold)
		if !errors.Is(err, storage.ErrCorruptSegment) {
			t.Fatalf("%s: %v, want an error wrapping storage.ErrCorruptSegment", name, err)
		}
		var se *storage.SegmentError
		if !errors.As(err, &se) || filepath.Base(se.Path) != "orders.cold.seg" {
			t.Fatalf("%s: error does not name the cold segment: %v", name, err)
		}
		if _, err := s.Query(hot); err != nil {
			t.Fatalf("%s: a hot statement failed beside the damaged cold segment: %v", name, err)
		}
	}

	remote.Close()
	srv.Close()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{hot, coldOnly} {
		if _, err := sys.Query(sql); !errors.Is(err, storage.ErrClosed) {
			t.Errorf("%s after Close: %v, want an error wrapping storage.ErrClosed", sql, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before the system, %d after its Close", before, n)
	}
}
