package client

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/server"
	"repro/internal/value"
)

// remote returns a fixture over f's server whose client was built by
// NewRemote, so it consumes the framed stream without a socket. Server
// settings are changed through f (the remote client has no Srv).
func (f *fixture) remote(exec Executor) *fixture {
	in := f.client
	if exec == nil {
		exec = in.Srv
	}
	return &fixture{cat: f.cat, client: NewRemote(in.Keys, exec, in.Srv.DB.Meta, in.Ctx, in.Cfg), plain: f.plain}
}

// recExec forwards to a server and counts the calls the client makes.
type recExec struct {
	srv *server.Server

	mu              sync.Mutex
	execute, stream int
}

func (e *recExec) Execute(q *ast.Query, params map[string]value.Value) (*server.Response, error) {
	e.mu.Lock()
	e.execute++
	e.mu.Unlock()
	return e.srv.Execute(q, params)
}

func (e *recExec) ExecuteStream(q *ast.Query, params map[string]value.Value, w io.Writer) (*server.StreamStats, error) {
	e.mu.Lock()
	e.stream++
	e.mu.Unlock()
	return e.srv.ExecuteStream(q, params, w)
}

// recStmtExec adds an in-memory prepared-statement registry. refuse, when
// set, fails that many ExecuteStmtStream calls before anything is written —
// what a connection answers for a handle the server no longer knows.
type recStmtExec struct {
	recExec
	stmts                            map[uint64]*ast.Query
	next                             uint64
	prepare, executeStmt, stmtStream int
	refuse                           int
}

var errUnknownStmt = errors.New("unknown statement")

func (e *recStmtExec) PrepareStmt(q *ast.Query) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.prepare++
	e.next++
	if e.stmts == nil {
		e.stmts = make(map[uint64]*ast.Query)
	}
	e.stmts[e.next] = q
	return e.next, nil
}

func (e *recStmtExec) ExecuteStmt(id uint64, params map[string]value.Value) (*server.Response, error) {
	e.mu.Lock()
	e.executeStmt++
	q := e.stmts[id]
	e.mu.Unlock()
	return e.srv.Execute(q, params)
}

func (e *recStmtExec) ExecuteStmtStream(id uint64, params map[string]value.Value, w io.Writer) (*server.StreamStats, error) {
	e.mu.Lock()
	e.stmtStream++
	q, ok := e.stmts[id]
	refused := e.refuse > 0
	if refused {
		e.refuse--
		delete(e.stmts, id)
	}
	e.mu.Unlock()
	if refused || !ok {
		return &server.StreamStats{}, errUnknownStmt
	}
	return e.srv.ExecuteStream(q, params, w)
}

func (e *recStmtExec) CloseStmt(id uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.stmts, id)
	return nil
}

// handoffWorkload drives the three ways a RemoteSQL gets issued: an
// uncacheable shape (planned cold every time, no cache entry to hang a
// statement on), a cacheable shape twice (fill, then a template hit), and a
// prepared statement.
func handoffWorkload(t *testing.T, f *fixture) {
	t.Helper()
	f.checkQuery(t, `SELECT o_id FROM orders WHERE o_total > (SELECT SUM(o_total) / 10 FROM orders) ORDER BY o_id`, nil)
	for i, lo := range []int{50, 100} {
		res := f.checkQuery(t, fmt.Sprintf(`SELECT o_id, o_total FROM orders WHERE o_total >= %d ORDER BY o_id`, lo), nil)
		if res.PlanCacheHit != (i > 0) {
			t.Errorf("lo=%d: PlanCacheHit = %v", lo, res.PlanCacheHit)
		}
	}
	stmt, err := f.client.Prepare(`SELECT o_id FROM orders WHERE o_cust = :c ORDER BY o_id`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"alice", "bob"} {
		if _, err := stmt.Execute(map[string]value.Value{"c": value.NewStr(c)}); err != nil {
			t.Fatalf("prepared c=%s: %v", c, err)
		}
	}
}

// TestHandoffSelectedByDeployment: which executor call carries a result is
// fixed by how the client was built. A client over an in-process server
// calls only Execute — through an interposed executor too, even one that
// offers statements — and a NewRemote client only ExecuteStream, or
// ExecuteStmtStream when the executor has statements and the plan is cached.
func TestHandoffSelectedByDeployment(t *testing.T) {
	f := newFixture(t)

	in := &recStmtExec{recExec: recExec{srv: f.client.Srv}}
	f.client.SetExecutor(in)
	handoffWorkload(t, f)
	if in.execute == 0 || in.stream+in.prepare+in.executeStmt+in.stmtStream != 0 {
		t.Errorf("in-process client: execute=%d stream=%d prepare=%d executeStmt=%d stmtStream=%d, want Execute only",
			in.execute, in.stream, in.prepare, in.executeStmt, in.stmtStream)
	}

	plain := &recExec{srv: f.client.Srv}
	handoffWorkload(t, f.remote(plain))
	if plain.stream == 0 || plain.execute != 0 {
		t.Errorf("remote client: execute=%d stream=%d, want ExecuteStream only", plain.execute, plain.stream)
	}

	st := &recStmtExec{recExec: recExec{srv: f.client.Srv}}
	handoffWorkload(t, f.remote(st))
	if st.execute+st.executeStmt != 0 {
		t.Errorf("remote statement client: execute=%d executeStmt=%d, want neither", st.execute, st.executeStmt)
	}
	// The uncacheable shape has no cache entry, hence no statement; every
	// templated execution goes by handle.
	if st.stream == 0 || st.stmtStream < 4 || st.prepare == 0 {
		t.Errorf("remote statement client: stream=%d stmtStream=%d prepare=%d", st.stream, st.stmtStream, st.prepare)
	}
}

// TestStaleStmtHandleRetried: a statement stream refused before its header
// (the server dropped the statement) costs one full re-execution, not the
// query — the handle is forgotten, the next execution registers a fresh one,
// and no goroutine of the refused attempt is left behind.
func TestStaleStmtHandleRetried(t *testing.T) {
	f := newFixture(t)
	st := &recStmtExec{recExec: recExec{srv: f.client.Srv}}
	r := f.remote(st)
	const shape = `SELECT o_id, o_total FROM orders WHERE o_total >= %d ORDER BY o_id`
	r.checkQuery(t, fmt.Sprintf(shape, 50), nil)
	if st.prepare != 1 || st.stmtStream != 1 || st.stream != 0 {
		t.Fatalf("fill: prepare=%d stmtStream=%d stream=%d", st.prepare, st.stmtStream, st.stream)
	}

	before := runtime.NumGoroutine()
	st.refuse = 1
	res := r.checkQuery(t, fmt.Sprintf(shape, 100), nil)
	if !res.PlanCacheHit {
		t.Error("the retried execution is still a template hit")
	}
	if st.stmtStream != 2 || st.stream != 1 {
		t.Errorf("refused execution: stmtStream=%d stream=%d, want one refused attempt and one full run", st.stmtStream, st.stream)
	}
	// Every goroutine has signalled by now; give the last ones a moment to
	// finish returning.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the retry, %d before", n, before)
	}

	r.checkQuery(t, fmt.Sprintf(shape, 300), nil)
	if st.prepare != 2 || st.stmtStream != 3 || st.stream != 1 {
		t.Errorf("next execution: prepare=%d stmtStream=%d stream=%d, want a re-registered handle", st.prepare, st.stmtStream, st.stream)
	}

	// A query that fails for its own reasons fails the retry as well, and the
	// caller sees that error.
	st.refuse = 1
	f.client.Srv.DB.Cat.Drop("orders")
	if _, err := r.client.Query(fmt.Sprintf(shape, 10), nil); err == nil || errors.Is(err, errUnknownStmt) {
		t.Errorf("failing query after a stale handle: %v, want the re-execution's error", err)
	}
}
