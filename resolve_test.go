package monomi

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/ast"
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/value"
)

// Name resolution, differentially: the plaintext engine, the split plan in
// process and the split plan over a socket bind every name through the one
// resolver in internal/ast, so a statement either fails with the same typed
// error on every path — before any row, and on the encrypted paths before
// any RemoteSQL is sent — or returns the same rows in the same order.

// nameSystem builds t(a, b) = (i, 10-i) and u(a, c) = (i, 2i) for i = 0..4,
// h(a, b) = (1,5),(1,5),(2,9), an empty e(a, c) and v(a_det) = 7, 8 (a schema
// column spelled like an encryption of t.a), encrypted on the given
// backend.
func nameSystem(t *testing.T, backend string) *System {
	t.Helper()
	db := NewDatabase()
	db.MustCreateTable("t", Col("a", Int), Col("b", Int))
	db.MustCreateTable("u", Col("a", Int), Col("c", Int))
	for i := 0; i < 5; i++ {
		db.MustInsert("t", i, 10-i)
		db.MustInsert("u", i, 2*i)
	}
	db.MustCreateTable("h", Col("a", Int), Col("b", Int))
	db.MustInsert("h", 1, 5)
	db.MustInsert("h", 1, 5)
	db.MustInsert("h", 2, 9)
	db.MustCreateTable("e", Col("a", Int), Col("c", Int))
	db.MustCreateTable("v", Col("a_det", Int))
	db.MustInsert("v", 7)
	db.MustInsert("v", 8)
	opts := DefaultOptions()
	opts.PaillierBits = 256
	opts.SpaceBudget = 0
	if backend == "disk" {
		opts.Backend = backend
		opts.DataDir = t.TempDir()
		opts.pageBytes = 1024
		opts.BlockCacheBytes = 16 << 10
	}
	sys, err := Encrypt(db, Workload{
		"tb": "SELECT a, b FROM t WHERE a = 1 ORDER BY b",
		"uc": "SELECT u.a, c FROM t, u WHERE t.a = u.a AND c > 2",
		"hs": "SELECT a, SUM(b) FROM h GROUP BY a",
		"ec": "SELECT c FROM e WHERE a = 1",
		"va": "SELECT a_det FROM v WHERE a_det = 7",
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// nameCases are the statements and what each must give on every path: an
// error class, or rows (in order).
var nameCases = []struct {
	sql  string
	err  error
	rows string
}{
	// An ambiguous name is an error, not rows.
	{sql: "SELECT b FROM t, u WHERE a = 1", err: ast.ErrAmbiguousColumn},
	{sql: "SELECT a FROM t, u", err: ast.ErrAmbiguousColumn},
	{sql: "SELECT b FROM (SELECT b, a FROM t) d, u WHERE a = 1", err: ast.ErrAmbiguousColumn},
	{sql: "SELECT t.a FROM t, u t", err: ast.ErrAmbiguousColumn},
	{sql: "SELECT d.a FROM (SELECT a, b AS a FROM t) d", err: ast.ErrAmbiguousColumn},
	// HAVING and ORDER BY read a SELECT alias before an input column.
	{sql: "SELECT a AS b FROM t ORDER BY b", rows: "[[0] [1] [2] [3] [4]]"},
	{sql: "SELECT a AS b, b AS a FROM t ORDER BY a", rows: "[[4 6] [3 7] [2 8] [1 9] [0 10]]"},
	{sql: "SELECT a, SUM(b) AS b FROM h GROUP BY a HAVING b > 7", rows: "[[1 10] [2 9]]"},
	{sql: "SELECT a, SUM(b) AS b FROM h GROUP BY a HAVING b > 9 ORDER BY b", rows: "[[1 10]]"},
	// A misspelt name fails before any row, whatever the data.
	{sql: "SELECT zz FROM e", err: ast.ErrUnknownColumn},
	{sql: "SELECT c FROM e WHERE zz = 1", err: ast.ErrUnknownColumn},
	{sql: "SELECT b FROM t WHERE b > 100 ORDER BY zz", err: ast.ErrUnknownColumn},
	{sql: "SELECT c FROM e, t WHERE a = 1", err: ast.ErrAmbiguousColumn},
	// ... also when it is spelled like an encrypted column.
	{sql: "SELECT b_ope FROM t", err: ast.ErrUnknownColumn},
	{sql: "SELECT a FROM t WHERE b_det = 6", err: ast.ErrUnknownColumn},
	// ... also in a naive subquery no outer row reaches.
	{sql: "SELECT a FROM e WHERE a < (SELECT COUNT(*) FROM t WHERE t.b < e.c AND zz = 1)", err: ast.ErrUnknownColumn},
	{sql: "SELECT a FROM e WHERE EXISTS (SELECT 1 FROM t WHERE b > c AND t.zz = 1)", err: ast.ErrUnknownColumn},
	// An alias is a name only in HAVING and ORDER BY of its own block.
	{sql: "SELECT a AS x FROM t WHERE x = 1", err: ast.ErrUnknownColumn},
	{sql: "SELECT a AS x, x + 1 FROM t", err: ast.ErrUnknownColumn},
	{sql: "SELECT a AS x FROM t WHERE EXISTS (SELECT 1 FROM u ORDER BY x)", err: ast.ErrUnknownColumn},
	// Valid shadowing and correlation.
	{sql: "SELECT a, b FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a AND c > 4) ORDER BY a", rows: "[[3 7] [4 6]]"},
	{sql: "SELECT a FROM t WHERE b > (SELECT MAX(c) FROM u WHERE a = 3) ORDER BY a", rows: "[[0] [1] [2] [3]]"},
	{sql: "SELECT a FROM t WHERE a IN (SELECT a FROM u WHERE c = b - 4) ORDER BY a", rows: "[[2]]"},
	{sql: "SELECT t.a, c FROM t, u WHERE t.a = u.a AND c > 2 ORDER BY c DESC", rows: "[[4 8] [3 6] [2 4]]"},
	{sql: "SELECT x.a FROM t x, t y WHERE x.a = y.b - 6 ORDER BY x.a", rows: "[[0] [1] [2] [3] [4]]"},
	{sql: "SELECT d.a, b FROM (SELECT a, b FROM t WHERE b > 7) d ORDER BY b", rows: "[[2 8] [1 9] [0 10]]"},
	{sql: "SELECT a, SUM(b) AS s FROM h GROUP BY a ORDER BY s DESC", rows: "[[1 10] [2 9]]"},
	// User aliases spelled like the split plan's temp columns.
	{sql: "SELECT a AS a0, SUM(b) AS k0 FROM h GROUP BY a ORDER BY a0", rows: "[[1 10] [2 9]]"},
	{sql: "SELECT a AS t__b, b AS t__a FROM t WHERE b > a ORDER BY t__a", rows: "[[4 6] [3 7] [2 8] [1 9] [0 10]]"},
	{sql: "SELECT a AS a FROM t WHERE a < 2 ORDER BY a DESC", rows: "[[1] [0]]"},
	{sql: "SELECT COUNT(*) FROM e", rows: "[[0]]"},
	// A schema column spelled like another's encryption is its own name.
	{sql: "SELECT a_det FROM t, v WHERE a = 1 ORDER BY a_det", rows: "[[7] [8]]"},
}

// TestDifferentialNameResolution runs nameCases through the plaintext
// engine, the in-process split plan and a ConnectRemote client, on the
// in-memory and the disk backend.
func TestDifferentialNameResolution(t *testing.T) {
	for _, backend := range []string{"mem", "disk"} {
		sys := nameSystem(t, backend)
		srv, err := sys.Serve("127.0.0.1:0", ServeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		remote, err := sys.ConnectRemote(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		local := &countingExec{Executor: sys.dep.Client.Executor()}
		sys.dep.Client.SetExecutor(local)
		paths := []struct {
			name  string
			query func(string) (*Rows, error)
		}{{"plaintext", sys.QueryPlaintext}, {"in-process", sys.Query}, {"remote", remote.Query}}
		for _, c := range nameCases {
			for _, p := range paths {
				sent := srv.Stats().Queries + int64(local.n)
				rows, err := p.query(c.sql)
				switch {
				case c.err != nil && !errors.Is(err, c.err):
					t.Errorf("%s %s %s: err %v, want %v", backend, p.name, c.sql, err, c.err)
				case c.err != nil && srv.Stats().Queries+int64(local.n) != sent:
					t.Errorf("%s %s %s: RemoteSQL sent before the error", backend, p.name, c.sql)
				case c.err == nil && err != nil:
					t.Errorf("%s %s %s: %v", backend, p.name, c.sql, err)
				case c.err == nil && rowsText(rows.Data) != c.rows:
					t.Errorf("%s %s %s: rows %s, want %s", backend, p.name, c.sql, rowsText(rows.Data), c.rows)
				}
			}
		}
		if local.n == 0 || srv.Stats().Queries == 0 {
			t.Fatalf("%s: no RemoteSQL counted (in process %d, served %d)", backend, local.n, srv.Stats().Queries)
		}
		remote.Close()
		srv.Close()
		sys.Close()
	}
}

// countingExec counts the RemoteSQL an in-process client sends.
type countingExec struct {
	client.Executor
	n int
}

func (e *countingExec) Execute(q *ast.Query, params map[string]value.Value) (*server.Response, error) {
	e.n++
	return e.Executor.Execute(q, params)
}

func (e *countingExec) ExecuteStream(q *ast.Query, params map[string]value.Value, w io.Writer) (*server.StreamStats, error) {
	e.n++
	return e.Executor.ExecuteStream(q, params, w)
}

// rowsText renders rows as [[v v] [v v]].
func rowsText(data [][]any) string { return fmt.Sprint(data) }
