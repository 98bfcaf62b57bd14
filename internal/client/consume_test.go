package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/enc"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// The one result consumer: both hand-offs decode their batches with one loop,
// so a malformed result fails the same way on each, a remote decode error
// stops the server's writer, and memos span every batch of an execution.

const (
	consumeRows = 4000 // four 1 024-row frames on the remote hand-off
	consumeSQL  = `SELECT s FROM t`
)

// consumeFixture is an in-process client over t(s), s = "grp-<i mod 4>" under
// DET, so consumeSQL ships consumeRows byte ciphertexts of 4 distinct values.
func consumeFixture(t testing.TB) *fixture {
	t.Helper()
	cat := storage.NewCatalog()
	tbl, err := cat.Create(storage.Schema{Name: "t", Cols: []storage.Column{{Name: "s", Type: storage.TStr}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < consumeRows; i++ {
		tbl.MustInsert([]value.Value{value.NewStr(fmt.Sprintf("grp-%d", i%4))})
	}
	d := &enc.Design{}
	d.Add(enc.ColumnItem("t", "s", enc.DET, value.Str))
	ks, err := enc.NewKeyStore([]byte("test-master-key"), 256)
	if err != nil {
		t.Fatal(err)
	}
	db, err := enc.EncryptDatabase(cat, d, ks)
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Default()
	ctx := planner.NewContext(cat, d, ks, planner.DefaultCostModel(cfg))
	return &fixture{cat: cat, client: New(ks, server.New(db, cfg), ctx, cfg), plain: engine.New(cat)}
}

// badExec serves the server's result with the cells of column 0 at the rows
// of bad replaced, drained or framed in 1 024-row batches.
type badExec struct {
	srv *server.Server
	bad map[int]value.Value
}

func (e *badExec) Execute(q *ast.Query, params map[string]value.Value) (*server.Response, error) {
	resp, err := e.srv.Execute(q, params)
	if err != nil {
		return nil, err
	}
	res := *resp.Result
	res.Rows = append([][]value.Value(nil), res.Rows...)
	for i, v := range e.bad {
		res.Rows[i] = append([]value.Value{v}, res.Rows[i][1:]...)
	}
	return &server.Response{Result: &res, WireBytes: resp.WireBytes}, nil
}

func (e *badExec) ExecuteStream(q *ast.Query, params map[string]value.Value, w io.Writer) (*server.StreamStats, error) {
	resp, err := e.Execute(q, params)
	if err != nil {
		return nil, err
	}
	bw, err := wire.NewBatchWriter(w, resp.Result.Cols)
	if err != nil {
		return nil, err
	}
	rows := resp.Result.Rows
	for lo := 0; lo < len(rows); lo += engine.DefaultBatchSize {
		if err := bw.WriteBatch(rows[lo:min(lo+engine.DefaultBatchSize, len(rows))]); err != nil {
			return nil, err
		}
	}
	return &server.StreamStats{Stats: resp.Result.Stats, WireBytes: bw.BytesWritten()}, bw.Close()
}

// TestMalformedFirstErrorEveryHandoff: with malformed cells at rows 10 and
// 3 000 — in different worker ranges at p=4, in different frames remote — the
// in-process and remote hand-offs at p=1 and p=4 all report the first failing
// row's error, and only it.
func TestMalformedFirstErrorEveryHandoff(t *testing.T) {
	f := consumeFixture(t)
	bad := &badExec{srv: f.client.Srv, bad: map[int]value.Value{10: value.NewFloat(1.5), 3000: value.NewStr("x")}}
	f.client.SetExecutor(bad)
	r := f.remote(bad)
	var first string
	for _, via := range []*fixture{f, r} {
		for _, p := range []int{1, 4} {
			via.client.Parallelism = p
			_, err := via.client.Query(consumeSQL, nil)
			if !errors.Is(err, ErrMalformedResult) {
				t.Fatalf("remote=%v p=%d: %v, want ErrMalformedResult", via == r, p, err)
			}
			if first == "" {
				first = err.Error()
				if !strings.Contains(first, "kind float") || strings.Contains(first, "kind str") {
					t.Errorf("error %q is not row 10's alone", first)
				}
			} else if err.Error() != first {
				t.Errorf("remote=%v p=%d: error %q, want %q", via == r, p, err, first)
			}
		}
	}
}

// floodExec writes a valid header and frame, a frame with an integer where a
// DET string ciphertext belongs, then valid frames until a write fails.
type floodExec struct {
	srv      *server.Server
	frames   int
	writeErr error
}

func (e *floodExec) Execute(q *ast.Query, params map[string]value.Value) (*server.Response, error) {
	return nil, errors.New("floodExec: streams only")
}

func (e *floodExec) ExecuteStream(q *ast.Query, params map[string]value.Value, w io.Writer) (*server.StreamStats, error) {
	resp, err := e.srv.Execute(q, params)
	if err != nil {
		return nil, err
	}
	good := resp.Result.Rows[:engine.DefaultBatchSize]
	bw, err := wire.NewBatchWriter(w, resp.Result.Cols)
	if err != nil {
		return nil, err
	}
	bad := append([][]value.Value{{value.NewInt(7)}}, good[1:]...)
	for _, b := range [][][]value.Value{good, bad} {
		if err := bw.WriteBatch(b); err != nil {
			return nil, err
		}
		e.frames++
	}
	for e.frames < 1000 {
		if e.writeErr = bw.WriteBatch(good); e.writeErr != nil {
			return nil, e.writeErr
		}
		e.frames++
	}
	return nil, errors.New("floodExec: no write failed")
}

// TestRemoteDecodeErrorStopsProducer: a decode error on the remote hand-off
// closes the pipe, so the server's next write fails; the query returns the
// decode error after joining the producer, and no goroutine outlives it.
func TestRemoteDecodeErrorStopsProducer(t *testing.T) {
	f := consumeFixture(t)
	for _, p := range []int{1, 4} {
		flood := &floodExec{srv: f.client.Srv}
		r := f.remote(flood)
		r.client.Parallelism = p
		base := runtime.NumGoroutine()
		_, err := r.client.Query(consumeSQL, nil)
		if !errors.Is(err, ErrMalformedResult) {
			t.Fatalf("p=%d: %v, want ErrMalformedResult", p, err)
		}
		if flood.writeErr == nil {
			t.Errorf("p=%d: the server wrote %d frames and no write failed", p, flood.frames)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("p=%d: %d goroutines after the query, %d before", p, n, base)
		}
	}
}

// TestMemoSpansBatches: an execution decodes all its batches on one decoder
// clone, so a DET column of 4 distinct ciphertexts costs 4 decryptions at p=1
// whether it arrives as one drained batch or as four frames.
func TestMemoSpansBatches(t *testing.T) {
	f := consumeFixture(t)
	for _, via := range []*fixture{f, f.remote(nil)} {
		via.client.Parallelism = 1
		res := via.checkQuery(t, consumeSQL, nil)
		if res.Decrypts != 4 {
			t.Errorf("remote=%v: %d decryptions, want 4", via != f, res.Decrypts)
		}
	}
}

// mangleExec frames the server's result, then hands the client the stream as
// mangle rewrites it, and returns err with the stream's stats.
type mangleExec struct {
	srv    *server.Server
	mangle func(stream []byte) []byte
	err    error
}

func (e *mangleExec) Execute(q *ast.Query, params map[string]value.Value) (*server.Response, error) {
	return nil, errors.New("mangleExec: streams only")
}

func (e *mangleExec) ExecuteStream(q *ast.Query, params map[string]value.Value, w io.Writer) (*server.StreamStats, error) {
	var buf bytes.Buffer
	st, err := e.srv.ExecuteStream(q, params, &buf)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(e.mangle(buf.Bytes())); err != nil {
		return nil, err
	}
	return st, e.err
}

// TestCorruptStreamIsMalformed: a result stream the frame reader rejects —
// cut short, or with a column mode no writer emits — fails the query as
// ErrMalformedResult wrapping wire.ErrCorrupt, while a transport error that
// cuts the stream comes through as itself.
func TestCorruptStreamIsMalformed(t *testing.T) {
	f := consumeFixture(t)
	// The first batch's first column mode follows the one-column header and
	// the batch frame's 9-byte head.
	firstMode := func(b []byte) int { return 5 + 4 + int(binary.BigEndian.Uint32(b[5:9])) + 9 }
	for name, c := range map[string]struct {
		mangle func([]byte) []byte
		err    error
	}{
		"truncated": {mangle: func(b []byte) []byte { return b[:len(b)-1] }},
		"bad mode byte": {mangle: func(b []byte) []byte {
			b[firstMode(b)] = 3
			return b
		}},
	} {
		_, err := f.remote(&mangleExec{srv: f.client.Srv, mangle: c.mangle}).client.Query(consumeSQL, nil)
		if !errors.Is(err, ErrMalformedResult) || !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: %v, want ErrMalformedResult wrapping wire.ErrCorrupt", name, err)
		}
	}
	reset := errors.New("connection reset")
	half := func(b []byte) []byte { return b[:len(b)/2] }
	_, err := f.remote(&mangleExec{srv: f.client.Srv, mangle: half, err: reset}).client.Query(consumeSQL, nil)
	if !errors.Is(err, reset) || errors.Is(err, ErrMalformedResult) {
		t.Errorf("transport error: %v, want the transport's error unclassified", err)
	}
}
