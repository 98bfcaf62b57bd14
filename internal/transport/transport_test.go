package transport

// Round-trip, stats-accounting, concurrency-stress, cancellation,
// disconnect-teardown, and TLS tests for the transport layer, all against
// real loopback TCP. The backend is a plaintext catalog (the transport is
// agnostic to what the engine scans; encrypted end-to-end coverage lives
// in the root package's network differential).

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/enc"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// testBackend builds a plaintext-backed server.Server with rows rows.
func testBackend(tb testing.TB, rows int) *server.Server {
	tb.Helper()
	cat := storage.NewCatalog()
	tbl, err := cat.Create(storage.Schema{
		Name: "t",
		Cols: []storage.Column{
			{Name: "k", Type: storage.TInt},
			{Name: "v", Type: storage.TInt},
			{Name: "s", Type: storage.TStr},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		tbl.MustInsert([]value.Value{
			value.NewInt(int64(i % 7)),
			value.NewInt(int64(i)),
			value.NewStr(fmt.Sprintf("row-%d", i%13)),
		})
	}
	return server.New(&enc.DB{Cat: cat}, netsim.Default())
}

// startServer listens on an ephemeral loopback port.
func startServer(tb testing.TB, backend *server.Server, cfg Config) *Server {
	tb.Helper()
	s, err := Listen(backend, "127.0.0.1:0", cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

func dialTest(tb testing.TB, s *Server) *Conn {
	tb.Helper()
	c, err := Dial(s.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// TestStreamByteIdentity: the remote stream must be byte-for-byte the
// in-process stream — the transport carries it verbatim.
func TestStreamByteIdentity(t *testing.T) {
	backend := testBackend(t, 500)
	s := startServer(t, backend, Config{})
	c := dialTest(t, s)

	queries := []string{
		`SELECT k, v FROM t WHERE v >= 100`,
		`SELECT DISTINCT s FROM t`,
		`SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k`,
		`SELECT v, s FROM t WHERE s = 'row-3' ORDER BY v DESC LIMIT 10`,
	}
	for _, sql := range queries {
		q := sqlparser.MustParse(sql)
		var want bytes.Buffer
		wantSt, err := backend.ExecuteStream(q, nil, &want)
		if err != nil {
			t.Fatalf("%s: in-process: %v", sql, err)
		}
		var got bytes.Buffer
		gotSt, err := c.ExecuteStream(q, nil, &got)
		if err != nil {
			t.Fatalf("%s: remote: %v", sql, err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("%s: remote stream differs from in-process (%d vs %d bytes)",
				sql, got.Len(), want.Len())
		}
		// The done frame carries every counter: the engine's work included.
		if *gotSt != *wantSt {
			t.Errorf("%s: stats diverge: remote %+v, in-process %+v", sql, gotSt, wantSt)
		}
	}
}

// TestExecuteMaterialized: the Execute call (materialized wire) decodes to
// the same rows the in-process server returns.
func TestExecuteMaterialized(t *testing.T) {
	backend := testBackend(t, 300)
	s := startServer(t, backend, Config{})
	c := dialTest(t, s)

	q := sqlparser.MustParse(`SELECT k, SUM(v) FROM t WHERE v < 250 GROUP BY k ORDER BY k`)
	want, err := backend.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Result.Cols, got.Result.Cols) {
		t.Fatalf("cols: %v vs %v", got.Result.Cols, want.Result.Cols)
	}
	if len(want.Result.Rows) != len(got.Result.Rows) {
		t.Fatalf("rows: %d vs %d", len(got.Result.Rows), len(want.Result.Rows))
	}
	for i := range want.Result.Rows {
		for j := range want.Result.Rows[i] {
			if value.Compare(want.Result.Rows[i][j], got.Result.Rows[i][j]) != 0 {
				t.Fatalf("row %d col %d: %v vs %v", i, j,
					got.Result.Rows[i][j], want.Result.Rows[i][j])
			}
		}
	}
	if got.Result.Stats != want.Result.Stats || got.WireBytes <= 0 {
		t.Errorf("remote response counted %+v (%d wire bytes), in-process %+v",
			got.Result.Stats, got.WireBytes, want.Result.Stats)
	}
}

// TestParamsAndLiterals: caller parameters and hoisted literals of every
// kind survive the frame; bytes values (ciphertext constants in the real
// deployment) round-trip even though they have no SQL spelling.
func TestParamsAndLiterals(t *testing.T) {
	backend := testBackend(t, 100)
	s := startServer(t, backend, Config{})
	c := dialTest(t, s)

	q := sqlparser.MustParse(`SELECT v FROM t WHERE k = 3 AND v >= :lo AND s = 'row-3'`)
	resp, err := c.Execute(q, map[string]value.Value{"lo": value.NewInt(10)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := backend.Execute(q, map[string]value.Value{"lo": value.NewInt(10)})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Rows) != len(want.Result.Rows) || len(resp.Result.Rows) == 0 {
		t.Fatalf("rows: remote %d, in-process %d (want >0)",
			len(resp.Result.Rows), len(want.Result.Rows))
	}

	// Frame-level round-trip of a query no SQL text can express: a bytes
	// literal (what every DET/OPE ciphertext constant is).
	raw := sqlparser.MustParse(`SELECT k FROM t WHERE s = 'placeholder'`)
	hq, params, order := planner.HoistLiterals(raw, "tp")
	params[order[0]] = value.NewBytes([]byte{0x00, 0xff, 0x10, 0x20})
	payload, err := queryPayload(7, hq.SQL(), params, order)
	if err != nil {
		t.Fatal(err)
	}
	qid, sql, got, err := parseQuery(payload)
	if err != nil {
		t.Fatal(err)
	}
	if qid != 7 || sql != hq.SQL() {
		t.Fatalf("qid=%d sql=%q", qid, sql)
	}
	if v := got[order[0]]; v.K != value.Bytes || !bytes.Equal(v.B, []byte{0x00, 0xff, 0x10, 0x20}) {
		t.Fatalf("bytes literal did not round-trip: %v", v)
	}
}

// TestConcurrentSessions is the stress test: many sessions, each running a
// mix of parameterized query shapes concurrently with its own parameter
// values, with exact per-session accounting and no cross-session bleed.
// Run with -race.
func TestConcurrentSessions(t *testing.T) {
	backend := testBackend(t, 400)
	s := startServer(t, backend, Config{})

	shapes := []string{
		`SELECT k, v FROM t WHERE v >= :lo`,
		`SELECT DISTINCT s FROM t WHERE v >= :lo`,
		`SELECT k, COUNT(*) FROM t WHERE v >= :lo GROUP BY k`,
		`SELECT v FROM t WHERE v >= :lo ORDER BY v DESC LIMIT 25`,
	}

	const clients = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	conns := make([]*Conn, clients)
	for i := range conns {
		conns[i] = dialTest(t, s)
	}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int, c *Conn) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := sqlparser.MustParse(shapes[(id+r)%len(shapes)])
				params := map[string]value.Value{"lo": value.NewInt(int64(id*40 + r))}
				var want, buf bytes.Buffer
				if _, err := backend.ExecuteStream(q, params, &want); err != nil {
					errs <- err
					return
				}
				if _, err := c.ExecuteStream(q, params, &buf); err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", id, r, err)
					return
				}
				if !bytes.Equal(buf.Bytes(), want.Bytes()) {
					errs <- fmt.Errorf("client %d round %d: stream differs (cross-session bleed?)", id, r)
					return
				}
			}
		}(i, conns[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Per-session accounting must match exactly on both ends.
	for i, c := range conns {
		cs := c.Stats()
		if cs.Queries != rounds {
			t.Fatalf("client %d ran %d queries, stats say %d", i, rounds, cs.Queries)
		}
		ss, ok := s.SessionStats(c.SessionID())
		if !ok {
			t.Fatalf("no server stats for session %d", c.SessionID())
		}
		if ss.Queries != cs.Queries || ss.Rows != cs.Rows ||
			ss.Batches != cs.Batches || ss.WireBytes != cs.WireBytes {
			t.Fatalf("session %d accounting diverges: server %+v, client %+v",
				c.SessionID(), ss, cs)
		}
	}
	if got := s.Stats().Queries; got != clients*rounds {
		t.Fatalf("server counted %d queries, want %d", got, clients*rounds)
	}
}

// TestPreparedConcurrentClients: several sessions each parse one
// parameterized statement once — what a client-side prepared statement
// holds — and re-execute it concurrently with their own :lo values, on the
// materialized path. Every execution ships as a query frame; results must
// match the in-process server and must not bleed across sessions. Run with
// -race.
func TestPreparedConcurrentClients(t *testing.T) {
	backend := testBackend(t, 200)
	s := startServer(t, backend, Config{})

	const clients = 6
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		c := dialTest(t, s)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			q := sqlparser.MustParse(fmt.Sprintf(`SELECT v FROM t WHERE k = %d AND v >= :lo ORDER BY v`, id%7))
			for r := 0; r < rounds; r++ {
				params := map[string]value.Value{"lo": value.NewInt(int64(id*10 + r*20))}
				got, err := c.Execute(q, params)
				if err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", id, r, err)
					return
				}
				want, err := backend.Execute(q, params)
				if err != nil {
					errs <- err
					return
				}
				if len(got.Result.Rows) != len(want.Result.Rows) {
					errs <- fmt.Errorf("client %d round %d: %d rows, want %d (cross-session bleed?)",
						id, r, len(got.Result.Rows), len(want.Result.Rows))
					return
				}
				for j := range want.Result.Rows {
					if value.Compare(want.Result.Rows[j][0], got.Result.Rows[j][0]) != 0 {
						errs <- fmt.Errorf("client %d round %d row %d: %v, want %v",
							id, r, j, got.Result.Rows[j][0], want.Result.Rows[j][0])
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.Stats().Queries; got != clients*rounds {
		t.Errorf("server Queries = %d, want %d", got, clients*rounds)
	}
}

// TestRepeatedQueryAccounting: one Conn runs the same parameterized
// RemoteSQL — a hoisted literal plus fresh :cpN values, the shape a cached
// client plan sends — N times. Each stream is byte-identical to the
// in-process one, the server counts exactly N queries, and the session's
// accounting equals the Conn's, field by field.
func TestRepeatedQueryAccounting(t *testing.T) {
	backend := testBackend(t, 300)
	s := startServer(t, backend, Config{})
	c := dialTest(t, s)

	q := sqlparser.MustParse(`SELECT v, s FROM t WHERE k = 3 AND v >= :cp0 AND v < :cp1 ORDER BY v`)
	const n = 12
	before := s.Stats().Queries
	for i := 0; i < n; i++ {
		params := map[string]value.Value{"cp0": value.NewInt(int64(i * 20)), "cp1": value.NewInt(int64(i*20 + 150))}
		var want, got bytes.Buffer
		if _, err := backend.ExecuteStream(q, params, &want); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ExecuteStream(q, params, &got); err != nil {
			t.Fatalf("execution %d: %v", i, err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("execution %d: remote stream differs from in-process", i)
		}
	}
	if got := s.Stats().Queries - before; got != n {
		t.Errorf("server counted %d queries, want %d", got, n)
	}
	cs := c.Stats()
	ss, ok := s.SessionStats(c.SessionID())
	if !ok {
		t.Fatal("no server stats for the session")
	}
	if cs.Queries != n || ss.Queries != cs.Queries || ss.Rows != cs.Rows ||
		ss.Batches != cs.Batches || ss.WireBytes != cs.WireBytes {
		t.Fatalf("accounting diverges: server %+v, client %+v", ss, cs)
	}
	if cs.Rows == 0 {
		t.Fatal("the repeated query returned no rows")
	}
}

// gateUDF registers a scalar UDF on the backend that blocks every call
// after the first `free` until the gate is released.
func gateUDF(backend *server.Server, free int64) (release func()) {
	gate := make(chan struct{})
	var calls int64
	var once sync.Once
	backend.Engine.RegisterScalar("gate", func(st *engine.Stats, args []value.Value) (value.Value, error) {
		if atomic.AddInt64(&calls, 1) > free {
			<-gate
		}
		return args[0], nil
	})
	return func() { once.Do(func() { close(gate) }) }
}

// TestCancelFrame: a context cancellation mid-stream sends a cancel frame;
// the server aborts the scan, accounts the cancellation, and the session
// remains usable for the next query.
func TestCancelFrame(t *testing.T) {
	backend := testBackend(t, 8000)
	// First ~2 batches flow freely, then the scan wedges until released.
	release := gateUDF(backend, 2*engine.DefaultBatchSize)
	s := startServer(t, backend, Config{})
	c := dialTest(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	sess := liveSession(t, s, c.SessionID())
	var once sync.Once
	fw := &funcWriter{fn: func(p []byte) (int, error) {
		// Cancel as soon as the first stream bytes arrive; wait for the
		// cancel frame to actually land (the job's context flips), and only
		// then unblock the scan so the server's between-batch cancellation
		// check deterministically fires before the query can complete.
		once.Do(func() {
			cancel()
			for {
				sess.pmu.Lock()
				job := sess.pending[1]
				sess.pmu.Unlock()
				if job == nil || job.ctx.Err() != nil {
					break
				}
				time.Sleep(time.Millisecond)
			}
			release()
		})
		return len(p), nil
	}}
	_, err := c.ExecuteStreamCtx(ctx, sqlparser.MustParse(`SELECT gate(v) FROM t`), nil, fw)
	if err != context.Canceled {
		t.Fatalf("cancelled query returned %v, want context.Canceled", err)
	}

	// The session survives cancellation: a fresh query still runs.
	var buf bytes.Buffer
	if _, err := c.ExecuteStream(sqlparser.MustParse(`SELECT k FROM t WHERE v < 10`), nil, &buf); err != nil {
		t.Fatalf("query after cancel: %v", err)
	}

	ss, _ := s.SessionStats(c.SessionID())
	if ss.Cancelled != 1 || ss.Queries != 1 {
		t.Fatalf("session stats after cancel: %+v (want Cancelled=1, Queries=1)", ss)
	}
	if got := s.Stats().Cancelled; got != 1 {
		t.Fatalf("server Cancelled = %d, want 1", got)
	}
}

// liveSession fetches a registered session by ID.
func liveSession(t *testing.T, s *Server, id uint64) *session {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[id]
	if sess == nil {
		t.Fatalf("session %d not registered", id)
	}
	return sess
}

type funcWriter struct{ fn func([]byte) (int, error) }

func (w *funcWriter) Write(p []byte) (int, error) { return w.fn(p) }

// TestAbandonWriter: the in-process abandon semantics over the wire — a
// failing client writer cancels the query server-side and the session
// stays healthy.
func TestAbandonWriter(t *testing.T) {
	backend := testBackend(t, 5000)
	s := startServer(t, backend, Config{})
	c := dialTest(t, s)

	boom := fmt.Errorf("sink full")
	n := 0
	fw := &funcWriter{fn: func(p []byte) (int, error) {
		n++
		if n > 1 {
			return 0, boom
		}
		return len(p), nil
	}}
	_, err := c.ExecuteStream(sqlparser.MustParse(`SELECT v FROM t`), nil, fw)
	if err != boom {
		t.Fatalf("abandoned query returned %v, want the writer's error", err)
	}
	var buf bytes.Buffer
	if _, err := c.ExecuteStream(sqlparser.MustParse(`SELECT COUNT(*) FROM t`), nil, &buf); err != nil {
		t.Fatalf("query after abandon: %v", err)
	}
}

// waitGoroutines asserts the goroutine count settles back to the baseline.
func waitGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	var after int
	for i := 0; i < 50; i++ {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after > before+2 {
		t.Fatalf("goroutines grew from %d to %d: %s leaks", before, after, what)
	}
}

// TestDisconnectMidStreamNoLeak: a client that vanishes mid-stream (no
// cancel frame, no clean shutdown) must not leak server goroutines or pin
// the scan.
func TestDisconnectMidStreamNoLeak(t *testing.T) {
	backend := testBackend(t, 8000)
	s := startServer(t, backend, Config{WriteTimeout: time.Second})

	before := runtime.NumGoroutine()
	for i := 0; i < 15; i++ {
		raw, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(raw, frameHello, helloPayload()); err != nil {
			t.Fatal(err)
		}
		if tag, _, err := readFrame(raw); err != nil || tag != frameHelloOK {
			t.Fatalf("handshake: tag=%#x err=%v", tag, err)
		}
		payload, err := buildQueryPayload(1, sqlparser.MustParse(`SELECT k, v, s FROM t`), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(raw, frameQuery, payload); err != nil {
			t.Fatal(err)
		}
		// Read a single frame to ensure the query is executing, then hang up.
		if tag, _, err := readFrame(raw); err != nil || tag != frameData {
			t.Fatalf("first frame: tag=%#x err=%v", tag, err)
		}
		raw.Close()
	}
	waitGoroutines(t, before, "mid-stream disconnect")
	s.mu.Lock()
	live := len(s.sessions)
	s.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d sessions still registered after disconnects", live)
	}
}

// TestClosedSessionsLeaveNothing: a server holds per-connection state only
// while the connection lives. 200 dial / query / close cycles leave no
// session registered, and a closed session's accounting is gone (ok false)
// while a live one's is exact.
func TestClosedSessionsLeaveNothing(t *testing.T) {
	s := startServer(t, testBackend(t, 100), Config{})
	q := sqlparser.MustParse(`SELECT k FROM t WHERE v < 10`)
	var closed []uint64
	for i := 0; i < 200; i++ {
		c, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ExecuteStream(q, nil, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		if ss, ok := s.SessionStats(c.SessionID()); !ok || ss.Queries != 1 || ss.Rows != 10 {
			t.Fatalf("live session %d: stats %+v ok=%v, want Queries=1 Rows=10", c.SessionID(), ss, ok)
		}
		closed = append(closed, c.SessionID())
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		live := len(s.sessions)
		s.mu.Unlock()
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of 200 closed sessions still registered", live)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range closed {
		if ss, ok := s.SessionStats(id); ok {
			t.Fatalf("closed session %d still has stats %+v", id, ss)
		}
	}
}

// TestServerCloseJoins: Close with live sessions tears everything down and
// joins every goroutine.
func TestServerCloseJoins(t *testing.T) {
	backend := testBackend(t, 100)
	before := runtime.NumGoroutine()
	s, err := Listen(backend, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]*Conn, 4)
	for i := range conns {
		c, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Queries on closed sessions fail rather than hang.
	if _, err := conns[0].ExecuteStream(sqlparser.MustParse(`SELECT k FROM t`), nil, &bytes.Buffer{}); err == nil {
		t.Fatal("query on a closed server succeeded")
	}
	for _, c := range conns {
		c.Close()
	}
	waitGoroutines(t, before, "server close")
}

// selfSignedTLS builds a throwaway server certificate and a client config
// trusting it.
func selfSignedTLS(t *testing.T) (*tls.Config, *tls.Config) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "monomi-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert)
	srvCfg := &tls.Config{Certificates: []tls.Certificate{{
		Certificate: [][]byte{der}, PrivateKey: key,
	}}}
	cliCfg := &tls.Config{RootCAs: pool, ServerName: "127.0.0.1"}
	return srvCfg, cliCfg
}

// TestTLSLoopback: the same protocol over TLS.
func TestTLSLoopback(t *testing.T) {
	backend := testBackend(t, 200)
	srvCfg, cliCfg := selfSignedTLS(t)
	s := startServer(t, backend, Config{TLS: srvCfg})
	c, err := DialTLS(s.Addr().String(), cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	q := sqlparser.MustParse(`SELECT k, COUNT(*) FROM t GROUP BY k`)
	var want, got bytes.Buffer
	if _, err := backend.ExecuteStream(q, nil, &want); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecuteStream(q, nil, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("TLS stream differs from in-process stream")
	}
}
