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
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/client"
	"repro/internal/engine"
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
// every result stream it carries, and the engine counters each successful
// execution reported: the handed-over result's on an in-process client, the
// done frame's on a remote one. It offers no statements, so a remote client
// behind it ships every RemoteSQL in full.
type recordingExec struct {
	inner   client.Executor
	streams []recordedStream
	stats   []engine.Stats
}

func (r *recordingExec) Execute(q *ast.Query, params map[string]value.Value) (*server.Response, error) {
	resp, err := r.inner.Execute(q, params)
	if err == nil {
		r.stats = append(r.stats, resp.Result.Stats)
	}
	return resp, err
}

func (r *recordingExec) ExecuteStream(q *ast.Query, params map[string]value.Value, w io.Writer) (*server.StreamStats, error) {
	var buf bytes.Buffer
	st, err := r.inner.ExecuteStream(q, params, io.MultiWriter(w, &buf))
	r.streams = append(r.streams, recordedStream{q, params, buf.Bytes()})
	if err == nil {
		r.stats = append(r.stats, st.Stats)
	}
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

// TestNetworkServerTimeFromCounts: the untrusted server reports counts, and
// the trusted client prices them with the testbed model. For UDF-free
// queries the counts a remote client receives in the done frame are the ones
// the in-process hand-off sees, so the two clients' modelled ServerTime agree
// to the nanosecond, and each is netsim's ServerTime of those counts.
func TestNetworkServerTimeFromCounts(t *testing.T) {
	sys := diffSystem(t)
	sys.SetParallelism(1)
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
	remote.SetParallelism(1)

	local := &recordingExec{inner: sys.dep.Client.Executor()}
	sys.dep.Client.SetExecutor(local)
	far := &recordingExec{inner: remote.dep.Client.Executor()}
	remote.dep.Client.SetExecutor(far)
	priced := func(stats []engine.Stats) (d time.Duration, udf bool) {
		for _, st := range stats {
			d += sys.dep.Net.ServerTime(st.BytesScanned+st.ExtraBytes, st.RowsScanned, time.Duration(st.UDFNanos))
			udf = udf || st.UDFNanos != 0
		}
		return d, udf
	}

	compared := 0
	for _, sql := range shardedStreamShapes {
		local.stats, far.stats, far.streams = nil, nil, nil
		want, err := sys.dep.Client.Query(sql, nil)
		if err != nil {
			t.Fatalf("in-process %s: %v", sql, err)
		}
		got, err := remote.dep.Client.Query(sql, nil)
		if err != nil {
			t.Fatalf("remote %s: %v", sql, err)
		}
		wantPriced, wantUDF := priced(local.stats)
		gotPriced, gotUDF := priced(far.stats)
		if want.ServerTime != wantPriced || got.ServerTime != gotPriced {
			t.Errorf("%s: ServerTime in-process %v remote %v, netsim of the counts %v and %v",
				sql, want.ServerTime, got.ServerTime, wantPriced, gotPriced)
		}
		if wantUDF || gotUDF {
			continue // measured UDF wall differs between two executions
		}
		compared++
		if want.ServerTime != got.ServerTime || !reflect.DeepEqual(local.stats, far.stats) {
			t.Errorf("%s: in-process ServerTime %v from %+v, remote %v from %+v",
				sql, want.ServerTime, local.stats, got.ServerTime, far.stats)
		}
	}
	if compared < len(shardedStreamShapes)/2 {
		t.Fatalf("only %d of %d shapes ran without a crypto UDF", compared, len(shardedStreamShapes))
	}
}

// TestNotOverNullConnective: the differential grid cannot see a NULL-logic
// bug, because both twins share one evaluator, so this pins SQL's answer.
// cats has 12 rows: 2 'ale', 2 with a NULL name. NOT (c_name = 'ale' OR
// c_tier > 100) is NULL, not TRUE, on the NULL names (NULL OR FALSE is
// NULL), so 8 rows count — on the plaintext twin, in process, and over the
// wire.
func TestNotOverNullConnective(t *testing.T) {
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
	for sql, want := range map[string]int64{
		"SELECT COUNT(*) FROM cats WHERE NOT (c_name = 'ale' OR c_tier > 100)":  8,
		"SELECT COUNT(*) FROM cats WHERE NOT (c_name = 'ale' AND c_tier < 100)": 8,
		"SELECT COUNT(*) FROM cats WHERE c_name = 'ale' OR c_tier > 100":        2,
	} {
		for name, query := range map[string]func(string) (*Rows, error){
			"plaintext": sys.QueryPlaintext, "in-process": sys.Query, "remote": remote.Query,
		} {
			res, err := query(sql)
			if err != nil {
				t.Fatalf("%s %s: %v", name, sql, err)
			}
			if got := res.Data[0][0]; got != want {
				t.Errorf("%s %s = %v, want %d", name, sql, got, want)
			}
		}
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
