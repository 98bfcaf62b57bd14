package client

import (
	"errors"
	"io"
	"sync"
	"testing"

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

// recStmtExec also offers the four methods of the retired statement
// protocol (the shape of client.StmtExecutor), counting any call. No client
// may make one: every RemoteSQL goes out as a whole query.
type recStmtExec struct {
	recExec
	stmtCalls int
}

var _ StmtExecutor = (*recStmtExec)(nil)

func (e *recStmtExec) stmtCall() {
	e.mu.Lock()
	e.stmtCalls++
	e.mu.Unlock()
}

func (e *recStmtExec) PrepareStmt(*ast.Query) (uint64, error) {
	e.stmtCall()
	return 0, errors.New("recStmtExec: statements are retired")
}

func (e *recStmtExec) ExecuteStmt(uint64, map[string]value.Value) (*server.Response, error) {
	e.stmtCall()
	return nil, errors.New("recStmtExec: statements are retired")
}

func (e *recStmtExec) ExecuteStmtStream(uint64, map[string]value.Value, io.Writer) (*server.StreamStats, error) {
	e.stmtCall()
	return nil, errors.New("recStmtExec: statements are retired")
}

func (e *recStmtExec) CloseStmt(uint64) error {
	e.stmtCall()
	return nil
}

// handoffWorkload drives the three ways a RemoteSQL gets issued: an
// uncacheable statement (planned cold every time), a cacheable statement
// twice with different parameters (fill, then a template hit), and a
// prepared statement.
func handoffWorkload(t *testing.T, f *fixture) {
	t.Helper()
	f.checkQuery(t, `SELECT o_id FROM orders WHERE o_total > (SELECT SUM(o_total) / 10 FROM orders) ORDER BY o_id`, nil)
	for i, lo := range []int64{50, 100} {
		res := f.checkQuery(t, `SELECT o_id, o_total FROM orders WHERE o_total >= :lo ORDER BY o_id`, map[string]value.Value{"lo": value.NewInt(lo)})
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
// calls only Execute — through an interposed executor too — and a NewRemote
// client only ExecuteStream, cached plans and prepared statements included,
// even over an executor that offers the retired statement methods.
func TestHandoffSelectedByDeployment(t *testing.T) {
	f := newFixture(t)

	in := &recStmtExec{recExec: recExec{srv: f.client.Srv}}
	f.client.SetExecutor(in)
	handoffWorkload(t, f)
	if in.execute == 0 || in.stream+in.stmtCalls != 0 {
		t.Errorf("in-process client: execute=%d stream=%d statement calls=%d, want Execute only",
			in.execute, in.stream, in.stmtCalls)
	}

	plain := &recExec{srv: f.client.Srv}
	handoffWorkload(t, f.remote(plain))
	if plain.stream == 0 || plain.execute != 0 {
		t.Errorf("remote client: execute=%d stream=%d, want ExecuteStream only", plain.execute, plain.stream)
	}

	// Offering statements changes nothing: the cached-plan and prepared
	// executions stream their whole RemoteSQL like any other.
	st := &recStmtExec{recExec: recExec{srv: f.client.Srv}}
	handoffWorkload(t, f.remote(st))
	if st.stream != plain.stream || st.execute+st.stmtCalls != 0 {
		t.Errorf("remote client over a statement-shaped executor: execute=%d stream=%d statement calls=%d, want ExecuteStream only (%d calls)",
			st.execute, st.stream, st.stmtCalls, plain.stream)
	}
}
