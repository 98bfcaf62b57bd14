package transport

// The serving side: a TCP (optionally TLS) listener multiplexing many
// concurrent client sessions onto one server.Server. Each accepted
// connection becomes a session with two goroutines:
//
//   - the read loop owns the socket's read half: it performs the
//     handshake, decodes query frames into jobs for the executor, and
//     handles cancel frames immediately — which is why it must never
//     execute queries itself;
//   - the executor drains the session's job queue one query at a time
//     (queries on one session are ordered, like any SQL connection;
//     concurrency comes from many sessions), acquiring the global
//     in-flight slot, streaming the result through data frames, and
//     closing with a done or error frame.
//
// Admission control is two gates with fail-fast rejection frames: the
// connection cap rejects at accept time (reject frame, close), and the
// in-flight query cap bounds globally concurrent executions — a query
// that cannot get a slot within QueryWait is rejected with an error frame
// (CodeQueryRejected) while its session stays healthy. Backpressure
// inside an admitted query is the socket itself: data frames are written
// as the engine produces batches, so a slow client stalls its own
// session's scan (the engine's bounded shard queues hold the readahead)
// without consuming more than its one in-flight slot.

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/sqlparser"
	"repro/internal/value"
)

// Config tunes a transport server.
type Config struct {
	// MaxConns caps concurrently accepted sessions; connection MaxConns+1
	// receives a reject frame and is closed. 0 = unlimited.
	MaxConns int
	// MaxInFlight caps globally concurrent query executions across all
	// sessions. 0 = unlimited.
	MaxInFlight int
	// QueryWait is how long a query may wait for an in-flight slot before
	// being rejected. 0 = fail fast: reject immediately when saturated.
	QueryWait time.Duration
	// WriteTimeout bounds each frame write, so a peer that stops reading
	// cannot pin a session goroutine forever (default 30s; the session
	// closes on expiry).
	WriteTimeout time.Duration
	// TLS, when set, wraps accepted connections in server-side TLS.
	TLS *tls.Config
}

const (
	// handshakeTimeout bounds the hello exchange.
	handshakeTimeout = 5 * time.Second
	// queryQueue is the per-session pipeline depth: queries decoded but not
	// yet executing. The read loop blocks past it.
	queryQueue = 16
)

func (c Config) withDefaults() Config {
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	return c
}

// ServerStats is a server-wide counter snapshot.
type ServerStats struct {
	Accepted      int64 // sessions admitted (handshake completed)
	RejectedConns int64 // connections refused by the connection cap
	Queries       int64 // queries executed (successfully or not)
	RejectedQs    int64 // queries refused by the in-flight cap
	Cancelled     int64 // queries aborted by a cancel frame
	Errors        int64 // queries that failed (parse or execution)
}

// SessionStats is one session's accounting: every counter reflects only
// that session's own queries, so a client can reconcile what it received
// against what the server believes it shipped.
type SessionStats struct {
	Queries   int64 // completed successfully
	Rejected  int64 // refused by the in-flight cap
	Cancelled int64
	Errors    int64
	Rows      int64 // result rows shipped (sum of done-frame Rows)
	Batches   int64 // result batches shipped
	WireBytes int64 // framed result-stream bytes shipped (the wire.Batch* bytes)
}

// Server accepts transport sessions and runs their queries on a
// server.Server (the untrusted half of the split execution).
type Server struct {
	backend *server.Server
	cfg     Config
	ln      net.Listener

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	inflight chan struct{} // nil = unlimited

	mu        sync.Mutex
	sessions  map[uint64]*session // live sessions only
	nextSID   uint64
	acceptErr error

	accepted, rejectedConns, queries, rejectedQs, cancelled, errors int64
}

// Listen starts a server on addr (e.g. "127.0.0.1:0" or ":7077").
func Listen(backend *server.Server, addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(backend, ln, cfg), nil
}

// Serve starts accepting sessions from ln. The returned Server owns the
// listener; Close stops accepting, tears down live sessions, and joins
// every goroutine.
func Serve(backend *server.Server, ln net.Listener, cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.TLS != nil {
		ln = tls.NewListener(ln, cfg.TLS)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		backend:  backend,
		cfg:      cfg,
		ln:       ln,
		ctx:      ctx,
		cancel:   cancel,
		sessions: make(map[uint64]*session),
	}
	if cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr is the listener's address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes every live session, and waits for all
// session goroutines to exit.
func (s *Server) Close() error {
	s.cancel()
	err := s.ln.Close()
	s.mu.Lock()
	for _, sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Stats returns a snapshot of the server-wide counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Accepted:      atomic.LoadInt64(&s.accepted),
		RejectedConns: atomic.LoadInt64(&s.rejectedConns),
		Queries:       atomic.LoadInt64(&s.queries),
		RejectedQs:    atomic.LoadInt64(&s.rejectedQs),
		Cancelled:     atomic.LoadInt64(&s.cancelled),
		Errors:        atomic.LoadInt64(&s.errors),
	}
}

// SessionStats returns the accounting for one live session; a closed
// session's is gone with it (ok false), so the server holds nothing per
// connection it no longer serves.
func (s *Server) SessionStats(id uint64) (SessionStats, bool) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		return SessionStats{}, false
	}
	sess.smu.Lock()
	defer sess.smu.Unlock()
	return sess.stats, true
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			if s.ctx.Err() == nil {
				s.acceptErr = err
			}
			s.mu.Unlock()
			return
		}
		s.mu.Lock()
		if s.cfg.MaxConns > 0 && len(s.sessions) >= s.cfg.MaxConns {
			s.mu.Unlock()
			atomic.AddInt64(&s.rejectedConns, 1)
			// Fail fast with a clean rejection frame, but off the accept
			// loop (a wedged peer must not stall admission), and read the
			// client's hello before closing: closing with unread inbound
			// data RSTs the connection, which can discard the reject frame
			// before the peer sees it.
			s.wg.Add(1)
			go func(conn net.Conn) {
				defer s.wg.Done()
				defer conn.Close()
				deadline := time.Now().Add(2 * time.Second)
				conn.SetDeadline(deadline)
				readFrame(conn)
				writeFrame(conn, frameReject, rejectPayload(CodeConnRejected,
					fmt.Sprintf("server at connection capacity (%d)", s.cfg.MaxConns)))
			}(conn)
			continue
		}
		s.nextSID++
		sess := newSession(s, conn, s.nextSID)
		s.sessions[sess.id] = sess
		s.mu.Unlock()
		atomic.AddInt64(&s.accepted, 1)
		s.wg.Add(1)
		go sess.run()
	}
}

func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
}

// queryJob is one decoded query frame queued for the session executor,
// which parses its SQL.
type queryJob struct {
	qid    uint64
	sql    string
	params map[string]value.Value
	ctx    context.Context
	cancel context.CancelFunc
}

// session is one accepted connection.
type session struct {
	srv  *Server
	conn net.Conn
	id   uint64

	ctx    context.Context
	cancel context.CancelFunc

	wmu sync.Mutex // frame-writer lock (single logical writer)

	pmu     sync.Mutex
	pending map[uint64]*queryJob

	jobs chan *queryJob

	smu   sync.Mutex
	stats SessionStats
}

func newSession(s *Server, conn net.Conn, id uint64) *session {
	ctx, cancel := context.WithCancel(s.ctx)
	return &session{
		srv: s, conn: conn, id: id,
		ctx: ctx, cancel: cancel,
		pending: make(map[uint64]*queryJob),
		jobs:    make(chan *queryJob, queryQueue),
	}
}

// writeFrame writes one frame under the session's writer lock with the
// configured write deadline; a deadline expiry poisons the connection
// (framing can no longer be trusted), so the session tears down.
func (s *session) writeFrame(tag byte, payload []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.conn.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteTimeout))
	err := writeFrame(s.conn, tag, payload)
	if err != nil {
		s.conn.Close()
	}
	return err
}

// run is the session's read loop (see the file comment for the split of
// responsibilities between it and the executor).
func (s *session) run() {
	defer s.srv.wg.Done()
	defer s.conn.Close()
	defer s.cancel()
	defer s.srv.dropSession(s)

	if err := s.handshake(); err != nil {
		return
	}

	// Executor: one query at a time, in arrival order.
	var ewg sync.WaitGroup
	ewg.Add(1)
	go func() {
		defer ewg.Done()
		for job := range s.jobs {
			s.runQuery(job)
		}
	}()
	// LIFO: close the job queue, cancel any running query, then join the
	// executor — so a disconnect aborts an in-flight scan instead of
	// letting it run to completion against a dead socket.
	defer ewg.Wait()
	defer s.cancel()
	defer close(s.jobs) // read loop is the only sender

	for {
		tag, payload, err := readFrame(s.conn)
		if err != nil {
			return // EOF / disconnect / server close
		}
		switch tag {
		case frameQuery:
			qid, sql, params, err := parseQuery(payload)
			if err != nil {
				s.writeFrame(frameError, errorPayload(qid, CodeProtocol, err.Error()))
				return
			}
			qctx, qcancel := context.WithCancel(s.ctx)
			job := &queryJob{qid: qid, sql: sql, params: params, ctx: qctx, cancel: qcancel}
			s.pmu.Lock()
			s.pending[qid] = job
			s.pmu.Unlock()
			select {
			case s.jobs <- job:
			case <-s.ctx.Done():
				qcancel()
				return
			}
		case frameCancel:
			qid, err := parseCancel(payload)
			if err != nil {
				s.writeFrame(frameError, errorPayload(0, CodeProtocol, err.Error()))
				return
			}
			// Unknown qid is benign: the query may already have completed.
			s.pmu.Lock()
			if job, ok := s.pending[qid]; ok {
				job.cancel()
			}
			s.pmu.Unlock()
		default:
			s.writeFrame(frameError, errorPayload(0, CodeProtocol,
				fmt.Sprintf("unexpected frame %#x", tag)))
			return
		}
	}
}

// handshake validates the client hello within the handshake deadline.
func (s *session) handshake() error {
	s.conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	defer s.conn.SetReadDeadline(time.Time{})
	tag, payload, err := readFrame(s.conn)
	if err != nil {
		return err
	}
	if tag != frameHello {
		s.writeFrame(frameReject, rejectPayload(CodeProtocol, "expected hello frame"))
		return errors.New("transport: no hello")
	}
	if err := parseHello(payload); err != nil {
		s.writeFrame(frameReject, rejectPayload(CodeProtocol, err.Error()))
		return err
	}
	return s.writeFrame(frameHelloOK, helloOKPayload(s.id))
}

// runQuery executes one job end to end: admission, parse, stream, close
// frame. It always unregisters the job's cancel handle.
func (s *session) runQuery(job *queryJob) {
	defer func() {
		s.pmu.Lock()
		delete(s.pending, job.qid)
		s.pmu.Unlock()
		job.cancel()
	}()

	if job.ctx.Err() != nil { // cancelled while queued
		s.countCancel()
		s.writeFrame(frameError, errorPayload(job.qid, CodeCancelled, "cancelled while queued"))
		return
	}

	// Admission: the global in-flight slot, waited for at most QueryWait.
	// The slot is held while the query works, not while its reply is
	// written: a client that has read the reply must find the slot free.
	release := func() {}
	if s.srv.inflight != nil {
		if !s.acquireSlot(job) {
			return
		}
		var once sync.Once
		release = func() { once.Do(func() { <-s.srv.inflight }) }
		defer release()
	}

	q, err := sqlparser.Parse(job.sql)
	if err != nil {
		s.countError()
		s.writeFrame(frameError, errorPayload(job.qid, CodeQueryError, err.Error()))
		return
	}

	cw := &chunkWriter{sess: s, qid: job.qid}
	st, err := s.srv.backend.ExecuteStreamCtx(job.ctx, q, job.params, cw)
	release()
	atomic.AddInt64(&s.srv.queries, 1)
	if err != nil {
		code := CodeQueryError
		if job.ctx.Err() != nil {
			code = CodeCancelled
			s.countCancel()
		} else {
			s.countError()
		}
		s.writeFrame(frameError, queryErrorPayload(job.qid, code, err))
		return
	}
	s.smu.Lock()
	s.stats.Queries++
	s.stats.Rows += st.Rows
	s.stats.Batches += st.Batches
	s.stats.WireBytes += st.WireBytes
	s.smu.Unlock()
	s.writeFrame(frameDone, donePayload(job.qid, st))
}

// acquireSlot waits for an in-flight slot, honouring QueryWait (0 = fail
// fast) and cancellation. It reports whether the slot was acquired; on
// rejection the error frame has already been written.
func (s *session) acquireSlot(job *queryJob) bool {
	reject := func(msg string) bool {
		atomic.AddInt64(&s.srv.rejectedQs, 1)
		s.smu.Lock()
		s.stats.Rejected++
		s.smu.Unlock()
		s.writeFrame(frameError, errorPayload(job.qid, CodeQueryRejected, msg))
		return false
	}
	if s.srv.cfg.QueryWait <= 0 {
		select {
		case s.srv.inflight <- struct{}{}:
			return true
		default:
			return reject(fmt.Sprintf("server at in-flight query capacity (%d)", s.srv.cfg.MaxInFlight))
		}
	}
	t := time.NewTimer(s.srv.cfg.QueryWait)
	defer t.Stop()
	select {
	case s.srv.inflight <- struct{}{}:
		return true
	case <-t.C:
		return reject(fmt.Sprintf("no in-flight slot within %v (cap %d)",
			s.srv.cfg.QueryWait, s.srv.cfg.MaxInFlight))
	case <-job.ctx.Done():
		s.countCancel()
		s.writeFrame(frameError, errorPayload(job.qid, CodeCancelled, "cancelled while waiting for a slot"))
		return false
	}
}

func (s *session) countCancel() {
	atomic.AddInt64(&s.srv.cancelled, 1)
	s.smu.Lock()
	s.stats.Cancelled++
	s.smu.Unlock()
}

func (s *session) countError() {
	atomic.AddInt64(&s.srv.errors, 1)
	s.smu.Lock()
	s.stats.Errors++
	s.smu.Unlock()
}

// chunkWriter carries one query's result stream as data frames. The
// engine-side BatchWriter sees a plain io.Writer, so the framed stream
// bytes are exactly the in-process stream's bytes, chunked into data
// frames for transport.
type chunkWriter struct {
	sess *session
	qid  uint64
	hdr  [8]byte
	set  bool
}

func (c *chunkWriter) Write(p []byte) (int, error) {
	if !c.set {
		// qid prefix, encoded once.
		for i := 0; i < 8; i++ {
			c.hdr[i] = byte(c.qid >> (8 * (7 - i)))
		}
		c.set = true
	}
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > dataChunkSize {
			n = dataChunkSize
		}
		payload := make([]byte, 0, 8+n)
		payload = append(payload, c.hdr[:]...)
		payload = append(payload, p[:n]...)
		if err := c.sess.writeFrame(frameData, payload); err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}
