package transport

// The dialing side: Conn implements client.Executor over a socket, so the
// trusted client library runs unchanged against a remote monomi-server —
// planning, decryption, and residual execution all stay client-side; only
// the two executor calls cross the network.
//
// A Conn serializes its queries (one in flight per session, like a SQL
// connection); open several Conns for concurrency. ExecuteStream writes
// the query frame and then copies data-frame payloads straight into the
// caller's writer — the concatenated payloads are byte-for-byte the
// stream server.ExecuteStream would have written in-process. If the
// caller's writer fails mid-stream (the in-process abandon path), the
// Conn sends a cancel frame and drains until the server confirms, so the
// session stays usable and the server's scan stops early.

import (
	"bytes"
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/value"
	"repro/internal/wire"
)

// ConnStats is the client-side accounting mirror of the server's
// SessionStats: accumulated from done frames, so a test can reconcile the
// two ends exactly.
type ConnStats struct {
	Queries   int64
	Rows      int64
	Batches   int64
	WireBytes int64
}

// Conn is one dialed transport session.
type Conn struct {
	conn      net.Conn
	sessionID uint64

	qmu sync.Mutex // one query in flight per session
	wmu sync.Mutex // frame-write lock (cancel frames interleave with queries)

	smu   sync.Mutex
	stats ConnStats

	nextQID uint64 // guarded by qmu

	bmu    sync.Mutex
	broken error // first fatal transport error; poisons the session
}

// Dial connects and handshakes with a monomi-server at addr.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return handshake(c)
}

// DialTLS connects over TLS. cfg must trust the server's certificate (or
// set InsecureSkipVerify for tests).
func DialTLS(addr string, cfg *tls.Config) (*Conn, error) {
	c, err := tls.Dial("tcp", addr, cfg)
	if err != nil {
		return nil, err
	}
	return handshake(c)
}

func handshake(c net.Conn) (*Conn, error) {
	if err := writeFrame(c, frameHello, helloPayload()); err != nil {
		c.Close()
		return nil, err
	}
	tag, payload, err := readFrame(c)
	if err != nil {
		c.Close()
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// The accept loop may close a rejected connection before our
			// read of its reject frame completes.
			return nil, &RejectError{Code: CodeConnRejected, Msg: "connection closed during handshake"}
		}
		return nil, err
	}
	switch tag {
	case frameHelloOK:
		sid, err := parseHelloOK(payload)
		if err != nil {
			c.Close()
			return nil, err
		}
		return &Conn{conn: c, sessionID: sid}, nil
	case frameReject:
		c.Close()
		return nil, parseReject(payload)
	default:
		c.Close()
		return nil, fmt.Errorf("transport: unexpected handshake frame %#x", tag)
	}
}

// SessionID is the server-assigned session identifier from the handshake.
func (c *Conn) SessionID() uint64 { return c.sessionID }

// Stats snapshots the client-side session accounting.
func (c *Conn) Stats() ConnStats {
	c.smu.Lock()
	defer c.smu.Unlock()
	return c.stats
}

// Close tears down the session. A query in flight on another goroutine
// fails with a connection error.
func (c *Conn) Close() error {
	c.poison(fmt.Errorf("transport: connection closed"))
	return c.conn.Close()
}

func (c *Conn) poison(err error) {
	c.bmu.Lock()
	if c.broken == nil {
		c.broken = err
	}
	c.bmu.Unlock()
}

func (c *Conn) poisoned() error {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	return c.broken
}

func (c *Conn) writeFrame(tag byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := writeFrame(c.conn, tag, payload); err != nil {
		c.poison(err)
		c.conn.Close()
		return err
	}
	return nil
}

// Execute runs one RemoteSQL to completion and materializes the result —
// the remote counterpart of server.Execute. It streams under the covers
// and decodes the buffered stream with the same wire.BatchReader the
// streamed path uses, so both executor calls exercise one wire format.
func (c *Conn) Execute(q *ast.Query, params map[string]value.Value) (*server.Response, error) {
	var buf bytes.Buffer
	st, err := c.ExecuteStream(q, params, &buf)
	if err != nil {
		return nil, err
	}
	return materialize(&buf, st)
}

// materialize decodes a buffered result stream into a Response.
func materialize(buf *bytes.Buffer, st *server.StreamStats) (*server.Response, error) {
	br, err := wire.NewBatchReader(buf)
	if err != nil {
		return nil, fmt.Errorf("transport: decoding result stream: %w", err)
	}
	res := &engine.Result{Cols: br.Cols(), Stats: st.Stats}
	for {
		rows, err := br.Next()
		if err != nil {
			return nil, fmt.Errorf("transport: decoding result stream: %w", err)
		}
		if rows == nil {
			break
		}
		res.Rows = append(res.Rows, rows...)
	}
	return &server.Response{Result: res, WireBytes: st.WireBytes}, nil
}

// ExecuteStream runs one RemoteSQL on the remote server, writing the
// framed batch stream to w as data frames arrive.
func (c *Conn) ExecuteStream(q *ast.Query, params map[string]value.Value, w io.Writer) (*server.StreamStats, error) {
	return c.ExecuteStreamCtx(context.Background(), q, params, w)
}

// ExecuteStreamCtx is ExecuteStream with cancellation: when ctx is
// cancelled mid-query, the Conn sends a cancel frame and the call returns
// once the server confirms the abort (CodeCancelled).
func (c *Conn) ExecuteStreamCtx(ctx context.Context, q *ast.Query, params map[string]value.Value, w io.Writer) (*server.StreamStats, error) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if err := c.poisoned(); err != nil {
		return nil, err
	}

	c.nextQID++
	qid := c.nextQID
	payload, err := buildQueryPayload(qid, q, params)
	if err != nil {
		return nil, err
	}
	if err := c.writeFrame(frameQuery, payload); err != nil {
		return nil, err
	}
	return c.awaitResult(ctx, qid, w)
}

// awaitResult reads the frames of one in-flight query (qid) to completion,
// copying data-frame payloads into w. Caller holds qmu.
func (c *Conn) awaitResult(ctx context.Context, qid uint64, w io.Writer) (*server.StreamStats, error) {
	// Cancel watcher: translate ctx cancellation into a cancel frame. The
	// read loop below then runs to the server's CodeCancelled error frame.
	watchDone := make(chan struct{})
	defer close(watchDone)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				c.writeFrame(frameCancel, cancelPayload(qid))
			case <-watchDone:
			}
		}()
	}

	// abandon is set when the caller's writer failed: we cancelled the
	// query ourselves and are draining to the server's confirmation, after
	// which the writer's error is the call's result (matching the
	// in-process semantics, where ExecuteStream returns the write error).
	var abandon error
	for {
		tag, payload, err := readFrame(c.conn)
		if err != nil {
			err = fmt.Errorf("transport: connection lost mid-query: %w", err)
			c.poison(err)
			c.conn.Close()
			return nil, err
		}
		switch tag {
		case frameData:
			if len(payload) < 8 {
				return nil, c.protocolFail("short data frame")
			}
			if decodeQID(payload) != qid {
				continue // late frames from a cancelled predecessor
			}
			if abandon != nil {
				continue // draining
			}
			if _, werr := w.Write(payload[8:]); werr != nil {
				abandon = werr
				c.writeFrame(frameCancel, cancelPayload(qid))
			}
		case frameDone:
			doneQID, st, err := parseDone(payload)
			if err != nil {
				return nil, c.protocolFail(err.Error())
			}
			if doneQID != qid {
				continue
			}
			if abandon != nil {
				// The whole stream beat our cancel frame; the query still
				// failed from the caller's perspective.
				return nil, abandon
			}
			c.smu.Lock()
			c.stats.Queries++
			c.stats.Rows += st.Rows
			c.stats.Batches += st.Batches
			c.stats.WireBytes += st.WireBytes
			c.smu.Unlock()
			return st, nil
		case frameError:
			errQID, re, perr := parseError(payload)
			if perr != nil {
				return nil, c.protocolFail(perr.Error())
			}
			if errQID != 0 && errQID != qid {
				continue
			}
			if abandon != nil {
				return nil, abandon
			}
			if ctx.Err() != nil && re.Code == CodeCancelled {
				return nil, ctx.Err()
			}
			return nil, re
		default:
			return nil, c.protocolFail(fmt.Sprintf("unexpected frame %#x", tag))
		}
	}
}

// protocolFail poisons the session on an unrecoverable framing violation.
func (c *Conn) protocolFail(msg string) error {
	err := fmt.Errorf("transport: protocol violation: %s", msg)
	c.poison(err)
	c.conn.Close()
	return err
}

func decodeQID(p []byte) uint64 {
	var q uint64
	for _, b := range p[:8] {
		q = q<<8 | uint64(b)
	}
	return q
}

// buildQueryPayload renders q for the wire: every literal, at any depth,
// hoisted to a :tpN parameter (ciphertext byte strings have no SQL
// spelling), merged with the caller's own parameters.
func buildQueryPayload(qid uint64, q *ast.Query, params map[string]value.Value) ([]byte, error) {
	hq, hoisted, order := planner.HoistLiterals(q, "tp")
	for name := range params {
		if strings.HasPrefix(name, "tp") {
			if _, clash := hoisted[name]; clash {
				return nil, fmt.Errorf("transport: parameter name %s collides with a hoisted literal", name)
			}
		}
	}
	callerNames := make([]string, 0, len(params))
	for name := range params {
		callerNames = append(callerNames, name)
	}
	sort.Strings(callerNames)
	for _, name := range callerNames {
		hoisted[name] = params[name]
		order = append(order, name)
	}
	return queryPayload(qid, hq.SQL(), hoisted, order)
}
