package wire

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/value"
)

// streamFixture frames a three-column stream with mixed kinds and batch
// shapes (incl. an empty batch) and returns the wire bytes plus the rows.
func streamFixture(t testing.TB) ([]byte, []string, [][][]value.Value) {
	t.Helper()
	cols := []string{"id", "blob", "name"}
	batches := [][][]value.Value{
		{
			{value.NewInt(1), value.NewBytes([]byte{0xde, 0xad}), value.NewStr("alpha")},
			{value.NewInt(-2), value.NewNull(), value.NewStr("")},
		},
		{},
		{
			{value.NewDate(9131), value.NewBytes(nil), value.NewStr("β")},
			{value.NewFloat(2.5), value.NewBytes([]byte{0}), value.NewNull()},
			{value.NewInt(1 << 60), value.NewNull(), value.NewStr("tail")},
		},
	}
	var buf bytes.Buffer
	bw, err := NewBatchWriter(&buf, cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := bw.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if bw.BytesWritten() != int64(buf.Len()) {
		t.Fatalf("BytesWritten = %d, wrote %d", bw.BytesWritten(), buf.Len())
	}
	return buf.Bytes(), cols, batches
}

func TestBatchRoundTrip(t *testing.T) {
	wireBytes, cols, batches := streamFixture(t)
	br, err := NewBatchReader(bytes.NewReader(wireBytes))
	if err != nil {
		t.Fatal(err)
	}
	if got := br.Cols(); len(got) != len(cols) || got[0] != "id" || got[2] != "name" {
		t.Fatalf("cols = %v, want %v", got, cols)
	}
	var wantRows, gotRows [][]value.Value
	for _, b := range batches {
		wantRows = append(wantRows, b...)
	}
	for {
		b, err := br.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		gotRows = append(gotRows, b...)
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("decoded %d rows, want %d", len(gotRows), len(wantRows))
	}
	for i, want := range wantRows {
		for j, wv := range want {
			gv := gotRows[i][j]
			if wv.IsNull() != gv.IsNull() {
				t.Fatalf("row %d col %d: null mismatch", i, j)
			}
			if !wv.IsNull() && value.Compare(wv, gv) != 0 {
				t.Fatalf("row %d col %d: %v != %v", i, j, gv, wv)
			}
		}
	}
	// Next after the end frame keeps returning nil.
	if b, err := br.Next(); b != nil || err != nil {
		t.Errorf("post-end Next = (%v, %v)", b, err)
	}
}

// TestBatchTruncation cuts the stream at every possible byte boundary: a
// reader over any strict prefix must return an error — never a silently
// short result — and never panic.
func TestBatchTruncation(t *testing.T) {
	wireBytes, _, _ := streamFixture(t)
	for cut := 0; cut < len(wireBytes); cut++ {
		br, err := NewBatchReader(bytes.NewReader(wireBytes[:cut]))
		if err != nil {
			continue // truncated inside the header: fine, it errored
		}
		rows := 0
		for {
			b, nerr := br.Next()
			if nerr != nil {
				err = nerr
				break
			}
			if b == nil {
				break
			}
			rows += len(b)
		}
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly with %d rows", cut, len(wireBytes), rows)
		}
	}
}

// TestBatchCorruption flips each byte of the stream and requires the
// reader to either fail or decode the same row count — never panic, never
// fabricate rows beyond the end-frame total.
func TestBatchCorruption(t *testing.T) {
	wireBytes, _, batches := streamFixture(t)
	total := 0
	for _, b := range batches {
		total += len(b)
	}
	for i := range wireBytes {
		corrupt := append([]byte(nil), wireBytes...)
		corrupt[i] ^= 0xff
		br, err := NewBatchReader(bytes.NewReader(corrupt))
		if err != nil {
			continue
		}
		rows := 0
		for {
			b, nerr := br.Next()
			if nerr != nil {
				err = nerr
				break
			}
			if b == nil {
				break
			}
			rows += len(b)
		}
		if err == nil && rows != total {
			t.Fatalf("flipping byte %d decoded cleanly with %d rows, want %d", i, rows, total)
		}
	}
}

func TestBatchWriterRejectsBadRows(t *testing.T) {
	var buf bytes.Buffer
	bw, err := NewBatchWriter(&buf, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteBatch([][]value.Value{{value.NewInt(1)}}); err == nil {
		t.Error("arity mismatch framed silently")
	}
	bogus := value.Value{K: value.Kind(250)}
	if err := bw.WriteBatch([][]value.Value{{value.NewInt(1), bogus}}); err == nil {
		t.Error("unknown kind framed silently")
	}
}

// TestBatchEndFrameCountMismatch hand-crafts a stream whose end frame
// declares more rows than were delivered.
func TestBatchEndFrameCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	bw, err := NewBatchWriter(&buf, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteBatch([][]value.Value{{value.NewInt(7)}}); err != nil {
		t.Fatal(err)
	}
	// End frame claiming 99 rows.
	end := append([]byte{frameEnd}, 0, 0, 0, 0, 0, 0, 0, 99)
	buf.Write(end)
	br, err := NewBatchReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := br.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := br.Next(); err == nil {
		t.Fatal("row-count mismatch accepted")
	}
}

// TestBatchReaderStreamsIncrementally proves the reader does not buffer
// the whole stream: batches written one at a time through an in-process
// pipe are readable before the writer closes the stream.
func TestBatchReaderStreamsIncrementally(t *testing.T) {
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	step := make(chan struct{})
	go func() {
		bw, err := NewBatchWriter(pw, []string{"x"})
		if err != nil {
			errc <- err
			return
		}
		for i := 0; i < 3; i++ {
			<-step
			if err := bw.WriteBatch([][]value.Value{{value.NewInt(int64(i))}}); err != nil {
				errc <- err
				return
			}
		}
		<-step
		errc <- bw.Close()
		pw.Close()
	}()
	// Reading the header unblocks the writer's pipe write; each step then
	// releases exactly one batch (or the end frame) into the pipe.
	br, err := NewBatchReader(pr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		step <- struct{}{} // release batch i
		rows, err := br.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0].I != int64(i) {
			t.Fatalf("batch %d = %v", i, rows)
		}
	}
	step <- struct{}{} // release the end frame
	if rows, err := br.Next(); rows != nil || err != nil {
		t.Fatalf("end = (%v, %v)", rows, err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// FuzzBatchReader feeds arbitrary bytes to the reader: it must never
// panic, and any clean decode must satisfy the end-frame row count.
func FuzzBatchReader(f *testing.F) {
	wireBytes, _, _ := streamFixture(f)
	f.Add(wireBytes)
	f.Add([]byte{})
	f.Add([]byte{frameHeader, 0, 0, 0, 0, frameEnd, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{frameBatch, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		br, err := NewBatchReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		rows := int64(0)
		for i := 0; i < 1<<16; i++ {
			b, err := br.Next()
			if err != nil {
				return
			}
			if b == nil {
				if rows != br.RowsRead() {
					t.Fatalf("rows counted %d, reader says %d", rows, br.RowsRead())
				}
				return
			}
			rows += int64(len(b))
		}
	})
}

// TestStreamFixtureSelfCheck keeps the fixture honest about sizes used in
// the sibling tests' messages.
func TestStreamFixtureSelfCheck(t *testing.T) {
	wireBytes, cols, _ := streamFixture(t)
	if len(wireBytes) == 0 || len(cols) != 3 {
		t.Fatal(fmt.Errorf("bad fixture: %d bytes, %d cols", len(wireBytes), len(cols)))
	}
}
