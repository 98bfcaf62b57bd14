package transport

// Hostile-input behaviour: malformed and truncated frames from a raw TCP
// client must produce a typed error frame (or a clean close) — never a
// panic, never a hung session — and the frame parsers must survive
// arbitrary bytes (fuzz).

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sqlparser"
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

func TestUnknownFrameTag(t *testing.T) {
	s := startServer(t, testBackend(t, 10), Config{})
	c := rawDial(t, s)
	mustHandshake(t, c)
	if err := writeFrame(c, 0xEE, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	tag, payload, err := readFrame(c)
	if err != nil || tag != frameError {
		t.Fatalf("unknown tag: tag=%#x err=%v", tag, err)
	}
	if _, re, _ := parseError(payload); re == nil || re.Code != CodeProtocol {
		t.Fatalf("unknown tag reply = %v, want CodeProtocol", re)
	}
	expectClosed(t, c)
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

// FuzzParseFrames: every other server- and client-side payload parser on
// arbitrary bytes.
func FuzzParseFrames(f *testing.F) {
	f.Add([]byte{})
	f.Add(helloPayload())
	f.Add(helloOKPayload(9))
	f.Add(rejectPayload(CodeConnRejected, "full"))
	f.Add(errorPayload(4, CodeQueryError, "boom"))
	f.Add(cancelPayload(4))
	f.Add(donePayload(4, &server.StreamStats{ServerTime: time.Second, WireBytes: 1 << 20, Batches: 3, Rows: 2048}))
	f.Fuzz(func(t *testing.T, data []byte) {
		parseHello(data)
		parseHelloOK(data)
		parseReject(data)
		parseError(data)
		parseCancel(data)
		parseDone(data)
	})
}
