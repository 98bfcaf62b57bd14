package monomi

// Network differential: the same plaintext-vs-encrypted grid as
// differential_test.go, but with the encrypted path executing its
// RemoteSQL over real loopback TCP (System.Serve + System.ConnectRemote),
// where the client consumes the framed stream. Two properties are pinned at
// every ⟨parallelism, batch size⟩ point:
//
//   - rows: the remote encrypted result equals the plaintext engine's
//     result and, order verbatim, the in-process System's result — the two
//     hand-offs against each other;
//   - frames: the bytes the remote client feeds its decrypt pipeline — the
//     concatenated transport data-frame payloads — are byte-identical to
//     what the server's ExecuteStream writes for the same RemoteSQL, query
//     by query. The transport carries the wire.Batch* framing verbatim;
//     this is the check that keeps it honest.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/value"
)

// recordedStream is one RemoteSQL a client streamed and the bytes it got.
type recordedStream struct {
	q      *ast.Query
	params map[string]value.Value
	frames []byte
}

// recordingExec interposes on a client's Executor and keeps a copy of
// every result stream it carries. It offers no statements, so a remote
// client behind it ships every RemoteSQL in full.
type recordingExec struct {
	inner   client.Executor
	streams []recordedStream
}

func (r *recordingExec) Execute(q *ast.Query, params map[string]value.Value) (*server.Response, error) {
	return r.inner.Execute(q, params)
}

func (r *recordingExec) ExecuteStream(q *ast.Query, params map[string]value.Value, w io.Writer) (*server.StreamStats, error) {
	var buf bytes.Buffer
	st, err := r.inner.ExecuteStream(q, params, io.MultiWriter(w, &buf))
	r.streams = append(r.streams, recordedStream{q, params, buf.Bytes()})
	return st, err
}

func TestNetworkDifferential(t *testing.T) {
	sys := diffSystem(t)
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

	// The recorder sees exactly the concatenated data-frame payloads the
	// remote client's transport connection delivered.
	rec := &recordingExec{inner: remote.dep.Client.Executor()}
	remote.dep.Client.SetExecutor(rec)

	for _, par := range []int{1, 2, 4} {
		sys.SetParallelism(par) // server + in-process client
		remote.SetParallelism(par)
		for _, bs := range diffBatchSizes {
			sys.SetBatchSize(bs)
			remote.SetBatchSize(bs)
			for _, sql := range shardedStreamShapes {
				plain, err := sys.QueryPlaintext(sql)
				if err != nil {
					t.Fatalf("p=%d bs=%d plaintext %s: %v", par, bs, sql, err)
				}
				local, err := sys.Query(sql)
				if err != nil {
					t.Fatalf("p=%d bs=%d in-process %s: %v", par, bs, sql, err)
				}
				rec.streams = nil
				res, err := remote.Query(sql)
				if err != nil {
					t.Fatalf("p=%d bs=%d remote %s: %v", par, bs, sql, err)
				}

				// Rows: remote == plaintext (order asserted only where the
				// query imposes one; the in-process comparison below pins
				// order anyway).
				ordered := strings.Contains(sql, "ORDER BY")
				want := canonicalRows(t, plain.Data, ordered)
				got := canonicalRows(t, res.Data, ordered)
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("p=%d bs=%d %s: remote result diverges from plaintext\n%v\nvs\n%v",
						par, bs, sql, got, want)
				}
				// Rows: remote == in-process encrypted, order verbatim.
				inproc := canonicalRows(t, local.Data, true)
				verbatim := canonicalRows(t, res.Data, true)
				if strings.Join(verbatim, "\n") != strings.Join(inproc, "\n") {
					t.Errorf("p=%d bs=%d %s: remote result diverges from in-process", par, bs, sql)
				}

				// Frames: what crossed the socket == what the server's
				// ExecuteStream writes for the same RemoteSQL.
				if len(rec.streams) == 0 {
					t.Errorf("p=%d bs=%d %s: remote client streamed nothing", par, bs, sql)
				}
				for i, rs := range rec.streams {
					var ref bytes.Buffer
					if _, err := sys.dep.Client.Srv.ExecuteStream(rs.q, rs.params, &ref); err != nil {
						t.Fatalf("p=%d bs=%d %s: reference stream %d: %v", par, bs, sql, i, err)
					}
					if !bytes.Equal(rs.frames, ref.Bytes()) {
						t.Errorf("p=%d bs=%d %s: stream %d differs over the wire (%d vs %d bytes)",
							par, bs, sql, i, len(rs.frames), ref.Len())
					}
				}
			}
		}
	}
}

// TestNetworkTimeToFirstRow: a ConnectRemote client decodes batches as they
// arrive, so against a bounded-batch server its first plaintext row exists
// long before the scan's last batch has been produced and shipped.
func TestNetworkTimeToFirstRow(t *testing.T) {
	sys := diffSystem(t)
	sys.SetBatchSize(16)
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
	res, err := remote.Query("SELECT s_id, s_price FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != diffRows {
		t.Fatalf("full scan returned %d rows, want %d", len(res.Data), diffRows)
	}
	if res.TimeToFirstRow <= 0 || res.TimeToFirstRow >= res.ServerTime+res.TransferTime {
		t.Errorf("TimeToFirstRow %.6fs, want below ServerTime + TransferTime = %.6fs",
			res.TimeToFirstRow, res.ServerTime+res.TransferTime)
	}
}

// TestNetworkConcurrentClients runs the encrypted mixed-shape workload
// from several remote trusted clients at once against one served
// deployment (run with -race): results must match the plaintext engine
// for every client, and the server must account one session per client.
func TestNetworkConcurrentClients(t *testing.T) {
	sys := diffSystem(t)
	sys.SetParallelism(2)
	sys.SetBatchSize(64)
	srv, err := sys.Serve("127.0.0.1:0", ServeConfig{MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	want := make([][]string, len(shardedStreamShapes))
	for i, sql := range shardedStreamShapes {
		plain, err := sys.QueryPlaintext(sql)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = canonicalRows(t, plain.Data, strings.Contains(sql, "ORDER BY"))
	}

	const clients = 4
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		remote, err := sys.ConnectRemote(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer remote.Close()
		wg.Add(1)
		go func(id int, remote *System) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, sql := range shardedStreamShapes {
					res, err := remote.Query(sql)
					if err != nil {
						errs <- fmt.Errorf("client %d: %s: %w", id, sql, err)
						return
					}
					got := canonicalRows(t, res.Data, strings.Contains(sql, "ORDER BY"))
					if strings.Join(got, "\n") != strings.Join(want[i], "\n") {
						errs <- fmt.Errorf("client %d: %s: result diverges from plaintext", id, sql)
						return
					}
				}
			}
		}(c, remote)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := srv.Stats().Accepted; got != clients {
		t.Fatalf("server accepted %d sessions, want %d", got, clients)
	}
}
