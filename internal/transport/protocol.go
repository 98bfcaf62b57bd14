// Package transport is MONOMI's real network layer: the request/response
// protocol a remote trusted client speaks to the untrusted server over TCP
// (optionally TLS). It moves the same result stream an in-process server
// hands over across an actual socket, with sessions multiplexing many
// concurrent clients onto server.ExecuteStreamCtx, per-query context
// cancellation, and admission control (connection cap, in-flight query
// cap).
//
// The protocol is frame-based. Every frame is
//
//	tag byte | u32 payload length | payload
//
// with client→server tags
//
//	hello:    0xC1  magic "MNM1" + u16 version
//	query:    0xC4  u64 qid | u32 sql len | sql | u32 nparams |
//	                nparams × (u32 name len | name | wire-framed value)
//	cancel:   0xC5  u64 qid
//
// and server→client tags
//
//	hello-ok: 0xC2  u16 version | u64 session id
//	reject:   0xC3  u16 code | message      (connection-level; closes)
//	data:     0xC6  u64 qid | stream bytes  (a chunk of the result stream)
//	done:     0xC7  u64 qid | 9 × u64 engine.Stats |
//	                u64 wire bytes | u64 batches | u64 rows
//	error:    0xC8  u64 qid | u16 code | message
//
// The query frame is the only request: every execution ships its
// RemoteSQL text and parameters, and the server keeps no per-statement
// state between queries. Any other tag after the handshake — the retired
// statement tags 0xC9–0xCC included — is a protocol error that closes the
// session.
//
// A query's result is the existing internal/wire batch stream
// (header/batch/end frames), carried verbatim as the concatenated payloads
// of its data frames — the transport never re-frames result rows, so the
// streamed bytes are byte-identical to what server.ExecuteStream writes
// in-process, and the client feeds them to the same wire.BatchReader. The
// done frame carries the server's StreamStats — the engine's work counters
// and the stream's size, no durations — so a remote client sees exactly
// the counts an in-process one does.
//
// Queries containing ciphertext constants do not render to re-parsable
// SQL (byte-string literals have no SQL spelling here), so the query frame
// ships the AST with every literal hoisted into a named parameter: SQL
// text with :p references plus the literal values in the wire value
// encoding (buildQueryPayload, via planner.HoistLiterals). The server parses
// the text and the engine resolves the parameters at evaluation time — the
// same mechanism user-supplied parameters already use.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// Protocol identity.
const (
	protoMagic   = "MNM1"
	protoVersion = 6 // 6: segment-error frames (CodeCorruptSegment); 5 column-major, dictionary-coded batch frames (4 had row-major frames; 3 modelled times; 2 statement frames)
)

// Frame tags. Disjoint from wire's value tags (0–5) and stream-frame tags
// (0xA1–0xA3) so a desynchronized reader fails on the first byte.
const (
	frameHello   byte = 0xC1
	frameHelloOK byte = 0xC2
	frameReject  byte = 0xC3
	frameQuery   byte = 0xC4
	frameCancel  byte = 0xC5
	frameData    byte = 0xC6
	frameDone    byte = 0xC7
	frameError   byte = 0xC8
)

// Sanity bounds: frames announcing more are corrupt, and rejecting them
// early keeps a fuzzed or malicious peer from driving huge allocations.
const (
	maxFramePayload = 1 << 26 // any single frame
	maxQueryParams  = 1 << 16
	dataChunkSize   = 64 << 10 // result stream bytes per data frame
)

// Code classifies rejections and errors on the wire.
type Code uint16

// Rejection and error codes.
const (
	// CodeQueryError: the query failed to parse or execute.
	CodeQueryError Code = 1
	// CodeCancelled: the query was cancelled by a cancel frame (or the
	// session closed under it).
	CodeCancelled Code = 2
	// CodeQueryRejected: admission control — the in-flight query cap was
	// reached and no slot freed within the server's QueryWait.
	CodeQueryRejected Code = 3
	// CodeConnRejected: admission control — the connection cap.
	CodeConnRejected Code = 4
	// CodeProtocol: malformed frame; the session closes after reporting.
	CodeProtocol Code = 5
	// CodeShutdown: the server is shutting down.
	CodeShutdown Code = 6
	// CodeCorruptSegment: the query failed on a damaged segment file
	// (storage.ErrCorruptSegment). The frame carries the
	// *storage.SegmentError's fields, so the client's error matches it too.
	CodeCorruptSegment Code = 7
)

func (c Code) String() string {
	switch c {
	case CodeQueryError:
		return "query error"
	case CodeCancelled:
		return "cancelled"
	case CodeQueryRejected:
		return "query rejected (in-flight cap)"
	case CodeConnRejected:
		return "connection rejected (connection cap)"
	case CodeProtocol:
		return "protocol error"
	case CodeShutdown:
		return "server shutting down"
	case CodeCorruptSegment:
		return "corrupt segment"
	}
	return fmt.Sprintf("code %d", uint16(c))
}

// RejectError is a server-initiated rejection or failure, carrying the
// protocol code so callers can distinguish admission-control rejections
// (retryable) from query errors (not).
type RejectError struct {
	Code Code
	Msg  string
	// Err is the typed cause a CodeCorruptSegment frame carries (a
	// *storage.SegmentError); nil for every other code.
	Err error
}

func (e *RejectError) Error() string {
	if e.Msg == "" {
		return "transport: " + e.Code.String()
	}
	return "transport: " + e.Code.String() + ": " + e.Msg
}

// Unwrap makes errors.Is(err, storage.ErrCorruptSegment) and errors.As to a
// *storage.SegmentError hold across the wire.
func (e *RejectError) Unwrap() error { return e.Err }

// IsRejected reports whether err is or wraps an admission-control
// rejection (connection or in-flight query cap).
func IsRejected(err error) bool {
	var re *RejectError
	return errors.As(err, &re) && (re.Code == CodeQueryRejected || re.Code == CodeConnRejected)
}

// writeFrame writes one complete frame as a single Write call, so a
// concurrent writer holding the same lock can never interleave bytes
// mid-frame.
func writeFrame(w io.Writer, tag byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("transport: frame payload of %d bytes exceeds limit", len(payload))
	}
	buf := make([]byte, 0, 5+len(payload))
	buf = append(buf, tag)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame, enforcing the payload bound.
func readFrame(r io.Reader) (tag byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("transport: frame %#x declares %d payload bytes", hdr[0], n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("transport: truncated frame %#x: %w", hdr[0], err)
	}
	return hdr[0], payload, nil
}

// --- payload encodings ---

func helloPayload() []byte {
	b := make([]byte, 0, 6)
	b = append(b, protoMagic...)
	return binary.BigEndian.AppendUint16(b, protoVersion)
}

func parseHello(p []byte) error {
	if len(p) != 6 || string(p[:4]) != protoMagic {
		return fmt.Errorf("transport: bad hello (not a monomi client?)")
	}
	if v := binary.BigEndian.Uint16(p[4:]); v != protoVersion {
		return fmt.Errorf("transport: protocol version %d, server speaks %d", v, protoVersion)
	}
	return nil
}

func helloOKPayload(sessionID uint64) []byte {
	b := binary.BigEndian.AppendUint16(nil, protoVersion)
	return binary.BigEndian.AppendUint64(b, sessionID)
}

func parseHelloOK(p []byte) (sessionID uint64, err error) {
	if len(p) != 10 {
		return 0, fmt.Errorf("transport: bad hello-ok frame")
	}
	if v := binary.BigEndian.Uint16(p); v != protoVersion {
		return 0, fmt.Errorf("transport: server speaks protocol version %d, want %d", v, protoVersion)
	}
	return binary.BigEndian.Uint64(p[2:]), nil
}

func rejectPayload(code Code, msg string) []byte {
	b := binary.BigEndian.AppendUint16(nil, uint16(code))
	return append(b, msg...)
}

func parseReject(p []byte) *RejectError {
	if len(p) < 2 {
		return &RejectError{Code: CodeProtocol, Msg: "malformed reject frame"}
	}
	return &RejectError{Code: Code(binary.BigEndian.Uint16(p)), Msg: string(p[2:])}
}

func errorPayload(qid uint64, code Code, msg string) []byte {
	b := binary.BigEndian.AppendUint64(nil, qid)
	b = binary.BigEndian.AppendUint16(b, uint16(code))
	return append(b, msg...)
}

// queryErrorPayload frames a failed query's err under code: a
// CodeQueryError that is a damaged segment goes out as CodeCorruptSegment,
// the segment error's offset, path and reason (each string u32-length
// prefixed) ahead of the message.
func queryErrorPayload(qid uint64, code Code, err error) []byte {
	var se *storage.SegmentError
	if code != CodeQueryError || !errors.As(err, &se) {
		return errorPayload(qid, code, err.Error())
	}
	b := binary.BigEndian.AppendUint64(nil, qid)
	b = binary.BigEndian.AppendUint16(b, uint16(CodeCorruptSegment))
	b = binary.BigEndian.AppendUint64(b, uint64(se.Offset))
	for _, s := range []string{se.Path, se.Reason} {
		b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	return append(b, err.Error()...)
}

func parseError(p []byte) (qid uint64, e *RejectError, err error) {
	if len(p) < 10 {
		return 0, nil, fmt.Errorf("transport: malformed error frame")
	}
	qid, e = binary.BigEndian.Uint64(p), &RejectError{Code: Code(binary.BigEndian.Uint16(p[8:]))}
	p = p[10:]
	if e.Code == CodeCorruptSegment {
		if len(p) < 8 {
			return 0, nil, fmt.Errorf("transport: malformed segment error frame")
		}
		se := &storage.SegmentError{Offset: int64(binary.BigEndian.Uint64(p))}
		p = p[8:]
		for _, dst := range []*string{&se.Path, &se.Reason} {
			if len(p) < 4 || uint64(len(p)-4) < uint64(binary.BigEndian.Uint32(p)) {
				return 0, nil, fmt.Errorf("transport: malformed segment error frame")
			}
			n := binary.BigEndian.Uint32(p)
			*dst, p = string(p[4:4+n]), p[4+n:]
		}
		e.Err = se
	}
	e.Msg = string(p)
	return qid, e, nil
}

// queryPayload frames one query: id, parameterized SQL text, and the
// parameter values in slot order, each as
// u32 name len | name | wire-framed value.
func queryPayload(qid uint64, sql string, params map[string]value.Value, order []string) ([]byte, error) {
	b := binary.BigEndian.AppendUint64(nil, qid)
	b = binary.BigEndian.AppendUint32(b, uint32(len(sql)))
	b = append(b, sql...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(order)))
	var err error
	for _, name := range order {
		b = binary.BigEndian.AppendUint32(b, uint32(len(name)))
		b = append(b, name...)
		if b, err = wire.AppendValue(b, params[name]); err != nil {
			return nil, fmt.Errorf("transport: encoding parameter %s: %w", name, err)
		}
	}
	return b, nil
}

// parseQuery decodes a query frame. Decoded byte strings are copied — the
// parameter values outlive the frame's scratch payload.
func parseQuery(p []byte) (qid uint64, sql string, params map[string]value.Value, err error) {
	fail := func(what string) (uint64, string, map[string]value.Value, error) {
		return 0, "", nil, fmt.Errorf("transport: malformed query frame: %s", what)
	}
	if len(p) < 12 {
		return fail("short header")
	}
	qid = binary.BigEndian.Uint64(p)
	n := binary.BigEndian.Uint32(p[8:])
	p = p[12:]
	if uint32(len(p)) < n {
		return fail("sql length overruns payload")
	}
	sql = string(p[:n])
	p = p[n:]
	if len(p) < 4 {
		return fail("missing parameter count")
	}
	np := binary.BigEndian.Uint32(p)
	p = p[4:]
	if np > maxQueryParams {
		return fail("parameter count exceeds limit")
	}
	if np > 0 {
		params = make(map[string]value.Value, np)
	}
	for i := uint32(0); i < np; i++ {
		if len(p) < 4 {
			return fail("truncated parameter name length")
		}
		ln := binary.BigEndian.Uint32(p)
		p = p[4:]
		if uint32(len(p)) < ln {
			return fail("parameter name overruns payload")
		}
		name := string(p[:ln])
		p = p[ln:]
		v, vn, err := wire.DecodeValue(p)
		if err != nil {
			return fail("bad parameter value: " + err.Error())
		}
		if v.K == value.Bytes {
			v.B = append([]byte(nil), v.B...)
		}
		params[name] = v
		p = p[vn:]
	}
	if len(p) != 0 {
		return fail("trailing bytes")
	}
	return qid, sql, params, nil
}

func cancelPayload(qid uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, qid)
}

func parseCancel(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("transport: malformed cancel frame")
	}
	return binary.BigEndian.Uint64(p), nil
}

// doneWords lists, in wire order, the StreamStats words a done frame
// carries: the engine's counters, then the stream's size.
func doneWords(st *server.StreamStats) []*int64 {
	e := &st.Stats
	return []*int64{
		&e.BytesScanned, &e.ExtraBytes, &e.RowsScanned, &e.RowsOut, &e.UDFNanos,
		&e.SubqueryRuns, &e.BatchesStreamed, &e.IndexLookups, &e.RowsSkippedByIndex,
		&st.WireBytes, &st.Batches, &st.Rows,
	}
}

// donePayload frames a completed query's StreamStats.
func donePayload(qid uint64, st *server.StreamStats) []byte {
	b := binary.BigEndian.AppendUint64(nil, qid)
	for _, w := range doneWords(st) {
		b = binary.BigEndian.AppendUint64(b, uint64(*w))
	}
	return b
}

func parseDone(p []byte) (qid uint64, st *server.StreamStats, err error) {
	st = &server.StreamStats{}
	words := doneWords(st)
	if len(p) != 8+8*len(words) {
		return 0, nil, fmt.Errorf("transport: malformed done frame")
	}
	for i, w := range words {
		*w = int64(binary.BigEndian.Uint64(p[8+8*i:]))
	}
	return binary.BigEndian.Uint64(p), st, nil
}
