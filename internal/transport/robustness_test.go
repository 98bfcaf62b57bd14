package transport

// Hostile-input behaviour: malformed and truncated frames from a raw TCP
// client must produce a typed error frame (or a clean close) — never a
// panic, never a hung session — and the frame parsers must survive
// arbitrary bytes (fuzz).

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// rawDial opens a bare TCP connection to the server.
func rawDial(t *testing.T, s *Server) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c
}

func mustHandshake(t *testing.T, c net.Conn) {
	t.Helper()
	if err := writeFrame(c, frameHello, helloPayload()); err != nil {
		t.Fatal(err)
	}
	if tag, _, err := readFrame(c); err != nil || tag != frameHelloOK {
		t.Fatalf("handshake: tag=%#x err=%v", tag, err)
	}
}

// expectClosed asserts the server eventually closes the connection.
func expectClosed(t *testing.T, c net.Conn) {
	t.Helper()
	buf := make([]byte, 64)
	for {
		if _, err := c.Read(buf); err != nil {
			return // EOF or reset: closed either way, and we never hung
		}
	}
}

func TestBadHello(t *testing.T) {
	s := startServer(t, testBackend(t, 10), Config{})

	// Wrong magic.
	c := rawDial(t, s)
	if err := writeFrame(c, frameHello, []byte("NOPE\x00\x01")); err != nil {
		t.Fatal(err)
	}
	if tag, payload, err := readFrame(c); err != nil || tag != frameReject {
		t.Fatalf("bad magic: tag=%#x err=%v", tag, err)
	} else if re := parseReject(payload); re.Code != CodeProtocol {
		t.Fatalf("bad magic code = %v, want CodeProtocol", re.Code)
	}
	expectClosed(t, c)

	// A version-1 peer (seven-word done frames) is refused at the handshake
	// with the version error, not left to mis-parse a done frame later.
	c1 := rawDial(t, s)
	if err := writeFrame(c1, frameHello, []byte(protoMagic+"\x00\x01")); err != nil {
		t.Fatal(err)
	}
	if tag, payload, err := readFrame(c1); err != nil || tag != frameReject {
		t.Fatalf("version-1 hello: tag=%#x err=%v", tag, err)
	} else if re := parseReject(payload); re.Code != CodeProtocol || !strings.Contains(re.Msg, "protocol version 1") {
		t.Fatalf("version-1 hello reply = %v, want the protocol-version error", re)
	}
	expectClosed(t, c1)

	// So is a version-2 peer, which still speaks the retired statement
	// frames.
	c3 := rawDial(t, s)
	if err := writeFrame(c3, frameHello, []byte(protoMagic+"\x00\x02")); err != nil {
		t.Fatal(err)
	}
	if tag, payload, err := readFrame(c3); err != nil || tag != frameReject {
		t.Fatalf("version-2 hello: tag=%#x err=%v", tag, err)
	} else if re := parseReject(payload); re.Code != CodeProtocol || !strings.Contains(re.Msg, "protocol version 2") {
		t.Fatalf("version-2 hello reply = %v, want the protocol-version error", re)
	}
	expectClosed(t, c3)

	// And a version-3 peer, whose done frames carried modelled durations
	// where version 4 carries the engine's counters.
	c4 := rawDial(t, s)
	if err := writeFrame(c4, frameHello, []byte(protoMagic+"\x00\x03")); err != nil {
		t.Fatal(err)
	}
	if tag, payload, err := readFrame(c4); err != nil || tag != frameReject {
		t.Fatalf("version-3 hello: tag=%#x err=%v", tag, err)
	} else if re := parseReject(payload); re.Code != CodeProtocol || !strings.Contains(re.Msg, "protocol version 3") {
		t.Fatalf("version-3 hello reply = %v, want the protocol-version error", re)
	}
	expectClosed(t, c4)

	// And a version-4 peer, whose batch frames were row-major with every
	// cell framed in full where version 5 dictionary-codes columns.
	c5 := rawDial(t, s)
	if err := writeFrame(c5, frameHello, []byte(protoMagic+"\x00\x04")); err != nil {
		t.Fatal(err)
	}
	if tag, payload, err := readFrame(c5); err != nil || tag != frameReject {
		t.Fatalf("version-4 hello: tag=%#x err=%v", tag, err)
	} else if re := parseReject(payload); re.Code != CodeProtocol || !strings.Contains(re.Msg, "protocol version 4") {
		t.Fatalf("version-4 hello reply = %v, want the protocol-version error", re)
	}
	expectClosed(t, c5)

	// And a version-5 peer, which would read a segment error's fields as
	// its message.
	c6 := rawDial(t, s)
	if err := writeFrame(c6, frameHello, []byte(protoMagic+"\x00\x05")); err != nil {
		t.Fatal(err)
	}
	if tag, payload, err := readFrame(c6); err != nil || tag != frameReject {
		t.Fatalf("version-5 hello: tag=%#x err=%v", tag, err)
	} else if re := parseReject(payload); re.Code != CodeProtocol || !strings.Contains(re.Msg, "protocol version 5") {
		t.Fatalf("version-5 hello reply = %v, want the protocol-version error", re)
	}
	expectClosed(t, c6)

	// Wrong first frame entirely.
	c2 := rawDial(t, s)
	if err := writeFrame(c2, frameCancel, cancelPayload(1)); err != nil {
		t.Fatal(err)
	}
	if tag, _, err := readFrame(c2); err != nil || tag != frameReject {
		t.Fatalf("non-hello first frame: tag=%#x err=%v", tag, err)
	}
	expectClosed(t, c2)
}

// retiredFrames are well-formed frames of the protocol-2 statement
// requests — prepare (0xC9), exec-stmt (0xCB), close-stmt (0xCC) — in the
// layouts they had.
func retiredFrames(tb testing.TB) map[byte][]byte {
	prepare, err := queryPayload(1, "SELECT k FROM t WHERE v = :tp0", nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return map[byte][]byte{
		0xC9: prepare,
		0xCB: append(make([]byte, 16), 0, 0, 0, 0), // qid | stmt id | no params
		0xCC: make([]byte, 8),                      // stmt id
	}
}

// TestUnknownFrameTag: a tag the protocol does not define — junk, or a
// retired statement request — gets a CodeProtocol error frame and a closed
// session, and the session leaves no goroutine behind.
func TestUnknownFrameTag(t *testing.T) {
	s := startServer(t, testBackend(t, 10), Config{})
	before := runtime.NumGoroutine()
	frames := retiredFrames(t)
	frames[0xEE] = []byte("junk")
	for ft, fp := range frames {
		c := rawDial(t, s)
		mustHandshake(t, c)
		if err := writeFrame(c, ft, fp); err != nil {
			t.Fatal(err)
		}
		tag, payload, err := readFrame(c)
		if err != nil || tag != frameError {
			t.Fatalf("tag %#x: reply tag=%#x err=%v", ft, tag, err)
		}
		if _, re, _ := parseError(payload); re == nil || re.Code != CodeProtocol {
			t.Fatalf("tag %#x: reply = %v, want CodeProtocol", ft, re)
		}
		expectClosed(t, c)
		c.Close()
	}
	waitGoroutines(t, before, "retired-frame sessions")
	s.mu.Lock()
	live := len(s.sessions)
	s.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d sessions still registered after protocol errors", live)
	}
}

// TestMalformedPreparedFrames: garbage payloads on the retired statement
// tags tear the session down with a typed error, like malformed query
// frames — the server rejects the tag without reading the payload.
func TestMalformedPreparedFrames(t *testing.T) {
	cases := []struct {
		tag     byte
		payload []byte
	}{
		{0xC9, []byte{}},
		{0xC9, []byte{0, 0, 0, 1}},
		{0xCB, []byte{}},
		{0xCB, make([]byte, 12)},
		{0xCB, append(make([]byte, 16), 0xff, 0xff, 0xff, 0xff)},
		{0xCC, []byte{1, 2, 3}},
	}
	s := startServer(t, testBackend(t, 10), Config{})
	for i, tc := range cases {
		c := rawDial(t, s)
		mustHandshake(t, c)
		if err := writeFrame(c, tc.tag, tc.payload); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		tag, reply, err := readFrame(c)
		if err != nil || tag != frameError {
			t.Fatalf("case %d: tag=%#x err=%v, want an error frame", i, tag, err)
		}
		if _, re, perr := parseError(reply); perr != nil || re.Code != CodeProtocol {
			t.Fatalf("case %d: reply %v, want CodeProtocol", i, re)
		}
		expectClosed(t, c)
		c.Close()
	}
}

// TestPrepareBadSQLKeepsSession: with no prepare step, SQL that does not
// parse is caught when a parameterized query frame carrying it arrives. It
// gets a CodeQueryError error frame — a query-level failure, not a
// protocol violation — and the next parameterized query on the same
// session still runs.
func TestPrepareBadSQLKeepsSession(t *testing.T) {
	s := startServer(t, testBackend(t, 10), Config{})
	c := rawDial(t, s)
	mustHandshake(t, c)

	params := map[string]value.Value{"tp0": value.NewInt(3)}
	bad, err := queryPayload(1, "PREPARE ME GARBAGE :tp0", params, []string{"tp0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(c, frameQuery, bad); err != nil {
		t.Fatal(err)
	}
	tag, reply, err := readFrame(c)
	if err != nil || tag != frameError {
		t.Fatalf("tag=%#x err=%v, want an error frame", tag, err)
	}
	if qid, re, _ := parseError(reply); re == nil || re.Code != CodeQueryError || qid != 1 {
		t.Fatalf("reply qid=%d %v, want CodeQueryError for query 1", qid, re)
	}

	good, err := queryPayload(2, "SELECT k FROM t WHERE v = :tp0", params, []string{"tp0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(c, frameQuery, good); err != nil {
		t.Fatal(err)
	}
	for {
		tag, reply, err := readFrame(c)
		if err != nil {
			t.Fatalf("session died after a query error: %v", err)
		}
		if tag == frameDone {
			if qid, st, err := parseDone(reply); err != nil || qid != 2 || st.Rows != 1 {
				t.Fatalf("done qid=%d err=%v stats=%+v, want query 2 with one row", qid, err, st)
			}
			return
		}
		if tag != frameData {
			t.Fatalf("unexpected tag %#x", tag)
		}
	}
}

func TestMalformedQueryFrame(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"short header":     {0, 0, 0, 1},
		"sql overrun":      {0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff},
		"huge param count": append(make([]byte, 8), 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff),
		"truncated param":  append(make([]byte, 8), 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 9),
		"trailing bytes":   append(make([]byte, 8), 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3),
		"bad param value":  append(make([]byte, 8), 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 'x', 0xee),
	}
	s := startServer(t, testBackend(t, 10), Config{})
	for name, payload := range cases {
		c := rawDial(t, s)
		mustHandshake(t, c)
		if err := writeFrame(c, frameQuery, payload); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tag, reply, err := readFrame(c)
		if err != nil || tag != frameError {
			t.Fatalf("%s: tag=%#x err=%v, want an error frame", name, tag, err)
		}
		if _, re, perr := parseError(reply); perr != nil || re.Code != CodeProtocol {
			t.Fatalf("%s: reply %v, want CodeProtocol", name, re)
		}
		expectClosed(t, c)
		c.Close()
	}
}

func TestUnparsableSQLKeepsSession(t *testing.T) {
	s := startServer(t, testBackend(t, 10), Config{})
	c := rawDial(t, s)
	mustHandshake(t, c)

	payload, err := queryPayload(1, "SELEC nonsense FRM", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(c, frameQuery, payload); err != nil {
		t.Fatal(err)
	}
	tag, reply, err := readFrame(c)
	if err != nil || tag != frameError {
		t.Fatalf("tag=%#x err=%v", tag, err)
	}
	if _, re, _ := parseError(reply); re == nil || re.Code != CodeQueryError {
		t.Fatalf("reply %v, want CodeQueryError", re)
	}

	// A query error is not a protocol error: the session keeps serving.
	good, err := buildQueryPayload(2, sqlparser.MustParse(`SELECT k FROM t`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(c, frameQuery, good); err != nil {
		t.Fatal(err)
	}
	for {
		tag, _, err := readFrame(c)
		if err != nil {
			t.Fatalf("session died after a query error: %v", err)
		}
		if tag == frameDone {
			return
		}
		if tag != frameData {
			t.Fatalf("unexpected tag %#x", tag)
		}
	}
}

func TestTruncatedFrameNoHang(t *testing.T) {
	s := startServer(t, testBackend(t, 10), Config{})

	// Declare a payload, send half of it, hang up. The server must tear
	// the session down (readFrame fails), not wait forever.
	c := rawDial(t, s)
	mustHandshake(t, c)
	c.Write([]byte{frameQuery, 0, 0, 1, 0})
	c.Write(make([]byte, 128))
	c.Close()

	// An oversized declared length is rejected before any allocation.
	c2 := rawDial(t, s)
	mustHandshake(t, c2)
	c2.Write([]byte{frameQuery, 0xff, 0xff, 0xff, 0xff})
	expectClosed(t, c2)

	// The server is still healthy for real clients.
	conn, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Execute(sqlparser.MustParse(`SELECT COUNT(*) FROM t`), nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseQuery: the query-frame parser must never panic on arbitrary
// bytes.
func FuzzParseQuery(f *testing.F) {
	good, _ := queryPayload(3, "SELECT k FROM t WHERE v = :tp0", nil, nil)
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, 12))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 'h', 'i', 0, 0, 0, 1, 0, 0, 0, 1, 'x', 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		parseQuery(data)
	})
}

// FuzzPreparedFrames: a repeated statement execution is a query frame with
// fresh parameter values, so the parameter codec must be canonical. Whatever
// parseQuery accepts re-encodes (parameters in name order) to a payload
// that parses back to the same bytes.
func FuzzPreparedFrames(f *testing.F) {
	seed := func(sql string, params map[string]value.Value) {
		order := make([]string, 0, len(params))
		for name := range params {
			order = append(order, name)
		}
		sort.Strings(order)
		p, err := queryPayload(3, sql, params, order)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Add([]byte{})
	seed("SELECT v FROM t WHERE k = 3 AND v >= :lo", map[string]value.Value{"lo": value.NewInt(5)})
	seed("SELECT k FROM t WHERE v >= :cp0 AND v < :cp1", map[string]value.Value{
		"cp0": value.NewInt(-1), "cp1": value.NewDate(9000)})
	seed("SELECT k FROM t WHERE s = :tp0", map[string]value.Value{"tp0": value.NewBytes([]byte{0, 0xff})})
	seed("SELECT k FROM t WHERE s = :tp0 OR v = :tp1", map[string]value.Value{
		"tp0": value.NewStr("row-3"), "tp1": value.Value{}})
	canon := func(p []byte) ([]byte, bool) {
		qid, sql, params, err := parseQuery(p)
		if err != nil {
			return nil, false
		}
		order := make([]string, 0, len(params))
		for name := range params {
			order = append(order, name)
		}
		sort.Strings(order)
		out, err := queryPayload(qid, sql, params, order)
		return out, err == nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		once, ok := canon(data)
		if !ok {
			return
		}
		twice, ok := canon(once)
		if !ok || !bytes.Equal(once, twice) {
			t.Fatalf("query payload does not round-trip: %x -> %x", once, twice)
		}
	})
}

// FuzzParseFrames: the frame reader and every other server- and
// client-side payload parser on arbitrary bytes. The retired statement tags
// (0xC9–0xCC) are seeded as whole frames: they are bytes a protocol-2 peer
// still sends.
func FuzzParseFrames(f *testing.F) {
	f.Add([]byte{})
	f.Add(helloPayload())
	f.Add(helloOKPayload(9))
	f.Add(rejectPayload(CodeConnRejected, "full"))
	f.Add(errorPayload(4, CodeQueryError, "boom"))
	f.Add(cancelPayload(4))
	f.Add(donePayload(4, &server.StreamStats{
		Stats: engine.Stats{BytesScanned: 1 << 22, ExtraBytes: 4096, RowsScanned: 60000, RowsOut: 2048,
			UDFNanos: 3e6, SubqueryRuns: 1, BatchesStreamed: 59, IndexLookups: 2, RowsSkippedByIndex: 512},
		WireBytes: 1 << 20, Batches: 3, Rows: 2048,
	}))
	retired := retiredFrames(f)
	retired[0xCA] = make([]byte, 8) // prepare-ok: stmt id
	for _, tag := range []byte{0xC9, 0xCA, 0xCB, 0xCC} {
		var frame bytes.Buffer
		writeFrame(&frame, tag, retired[tag])
		f.Add(frame.Bytes())
	}
	f.Add([]byte{0xCB, 0xff, 0xff, 0xff, 0xff}) // oversized declared length
	f.Fuzz(func(t *testing.T, data []byte) {
		readFrame(bytes.NewReader(data))
		parseHello(data)
		parseHelloOK(data)
		parseReject(data)
		parseError(data)
		parseCancel(data)
		parseDone(data)
	})
}

// TestDoneRoundTrip: a done frame carries every StreamStats counter — each
// engine.Stats field included, so a counter added to the engine without a
// wire word fails here — and parseDone reads back exactly what donePayload
// wrote.
func TestDoneRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Int64:
				f.SetInt(rng.Int63() - rng.Int63())
			case reflect.Struct:
				fill(f)
			default:
				t.Fatalf("StreamStats field %s of kind %v has no done-frame encoding", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	for i := 0; i < 100; i++ {
		var want server.StreamStats
		fill(reflect.ValueOf(&want).Elem())
		qid := rng.Uint64()
		gotQID, got, err := parseDone(donePayload(qid, &want))
		if err != nil || gotQID != qid || !reflect.DeepEqual(*got, want) {
			t.Fatalf("done frame round trip: qid %d -> %d, %+v -> %+v (err %v)", qid, gotQID, want, got, err)
		}
	}
}

// TestSegmentErrorFrameRoundTrip: a query that failed on a damaged segment
// reaches the client as a CodeCorruptSegment error that still matches
// storage.ErrCorruptSegment and carries the *storage.SegmentError's fields;
// any other failure keeps its code and only its message; and a truncated
// segment error frame is a protocol error, not a panic.
func TestSegmentErrorFrameRoundTrip(t *testing.T) {
	se := &storage.SegmentError{Path: "/data/t.cold.seg", Offset: 7680, Reason: "page checksum mismatch"}
	cause := fmt.Errorf("engine: scan t: %w", se)
	p := queryErrorPayload(42, CodeQueryError, cause)
	qid, re, err := parseError(p)
	if err != nil || qid != 42 || re.Code != CodeCorruptSegment || re.Msg != cause.Error() {
		t.Fatalf("parsed %d %+v %v", qid, re, err)
	}
	var got *storage.SegmentError
	if !errors.Is(re, storage.ErrCorruptSegment) || !errors.As(re, &got) || *got != *se {
		t.Fatalf("decoded error %v does not match the segment error %+v", re, se)
	}
	for _, c := range []struct {
		code Code
		err  error
	}{{CodeQueryError, errors.New("no such table")}, {CodeCancelled, cause}} {
		_, re, err := parseError(queryErrorPayload(1, c.code, c.err))
		if err != nil || re.Code != c.code || re.Err != nil || re.Msg != c.err.Error() {
			t.Errorf("%v %v: parsed %+v %v", c.code, c.err, re, err)
		}
	}
	for n := 10; n < len(p)-len(cause.Error()); n++ {
		if _, _, err := parseError(p[:n]); err == nil {
			t.Errorf("a segment error frame cut to %d bytes parsed", n)
		}
	}
}
