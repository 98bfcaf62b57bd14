package wire

// Streamed result protocol. A result stream is one header frame, any
// number of batch frames, and one end frame:
//
//	header: 0xA1 | u32 ncols | ncols × (u32 len | name bytes)
//	batch:  0xA2 | u32 nrows | u32 payload len | nrows × ncols framed values
//	end:    0xA3 | u64 total rows
//
// Values inside a batch reuse the per-value tags of wire.go (the same
// encoding GROUP_CONCAT blobs use), so the stream and the blobs inside it
// speak one value vocabulary. The end frame carries the total row count as
// an integrity check: a reader that sees end with a mismatched count — or
// EOF with no end frame — reports a truncated stream instead of returning
// a silently short result.

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/value"
)

// Frame type tags. Distinct from the value tags (0–5) so a reader
// desynchronized into value territory fails immediately.
const (
	frameHeader byte = 0xA1
	frameBatch  byte = 0xA2
	frameEnd    byte = 0xA3
)

// Sanity bounds: a frame announcing more than these is corrupt, and
// rejecting it early keeps a fuzzed or truncated stream from driving a
// multi-gigabyte allocation.
const (
	maxCols         = 1 << 16
	maxRowsPerBatch = 1 << 24
	maxBatchPayload = 1 << 30
	maxNameLen      = 1 << 16
)

// ResultHeader describes a streamed result before any rows arrive.
type ResultHeader struct {
	Cols []string
}

// AppendHeader appends the header frame for cols to dst.
func AppendHeader(dst []byte, cols []string) ([]byte, error) {
	if len(cols) > maxCols {
		return dst, fmt.Errorf("wire: %d columns exceeds frame limit", len(cols))
	}
	dst = append(dst, frameHeader)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(cols)))
	for _, c := range cols {
		if len(c) > maxNameLen {
			return dst, fmt.Errorf("wire: column name of %d bytes exceeds frame limit", len(c))
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(c)))
		dst = append(dst, c...)
	}
	return dst, nil
}

// BatchWriter frames a result stream onto w: the header at construction,
// one batch frame per WriteBatch, the end frame at Close.
type BatchWriter struct {
	w     io.Writer
	ncols int
	buf   []byte
	bytes int64
	rows  int64
}

// NewBatchWriter writes the header frame for cols and returns a writer for
// the stream's batches.
func NewBatchWriter(w io.Writer, cols []string) (*BatchWriter, error) {
	bw := &BatchWriter{w: w, ncols: len(cols)}
	b, err := AppendHeader(bw.buf[:0], cols)
	if err != nil {
		return nil, err
	}
	if err := bw.flush(b); err != nil {
		return nil, err
	}
	return bw, nil
}

// WriteBatch frames one batch of rows. Every row must have exactly the
// header's column count — the reader reconstructs row boundaries from it.
func (bw *BatchWriter) WriteBatch(rows [][]value.Value) error {
	if len(rows) > maxRowsPerBatch {
		return fmt.Errorf("wire: batch of %d rows exceeds frame limit", len(rows))
	}
	b := append(bw.buf[:0], frameBatch)
	b = binary.BigEndian.AppendUint32(b, uint32(len(rows)))
	b = binary.BigEndian.AppendUint32(b, 0) // payload length, patched below
	payloadStart := len(b)
	var err error
	for _, row := range rows {
		if len(row) != bw.ncols {
			return fmt.Errorf("wire: row has %d values, header declares %d columns", len(row), bw.ncols)
		}
		for _, v := range row {
			if b, err = AppendValue(b, v); err != nil {
				return err
			}
		}
	}
	payload := len(b) - payloadStart
	if payload > maxBatchPayload {
		return fmt.Errorf("wire: batch payload of %d bytes exceeds frame limit", payload)
	}
	binary.BigEndian.PutUint32(b[payloadStart-4:payloadStart], uint32(payload))
	bw.rows += int64(len(rows))
	return bw.flush(b)
}

// Close writes the end frame. It does not close the underlying writer.
func (bw *BatchWriter) Close() error {
	b := append(bw.buf[:0], frameEnd)
	b = binary.BigEndian.AppendUint64(b, uint64(bw.rows))
	return bw.flush(b)
}

// flush writes one complete frame and recycles its buffer.
func (bw *BatchWriter) flush(b []byte) error {
	bw.buf = b[:0]
	n, err := bw.w.Write(b)
	bw.bytes += int64(n)
	return err
}

// BytesWritten reports the total framed bytes written so far — the
// streamed result's size on the wire.
func (bw *BatchWriter) BytesWritten() int64 { return bw.bytes }

// RowsWritten reports the rows framed so far.
func (bw *BatchWriter) RowsWritten() int64 { return bw.rows }

// BatchReader decodes a result stream from r, validating framing as it
// goes: truncated or corrupt frames return errors, never short results.
type BatchReader struct {
	r    io.Reader
	hdr  ResultHeader
	buf  []byte
	rows int64
	done bool
}

// NewBatchReader reads the header frame (blocking until the producer has
// written it) and returns a reader positioned at the first batch.
func NewBatchReader(r io.Reader) (*BatchReader, error) {
	br := &BatchReader{r: r}
	tag, err := br.readByte()
	if err != nil {
		return nil, fmt.Errorf("wire: reading stream header: %w", err)
	}
	if tag != frameHeader {
		return nil, fmt.Errorf("wire: stream starts with tag %#x, want header", tag)
	}
	ncols, err := br.readUint32()
	if err != nil {
		return nil, fmt.Errorf("wire: reading column count: %w", err)
	}
	if ncols > maxCols {
		return nil, fmt.Errorf("wire: header declares %d columns", ncols)
	}
	br.hdr.Cols = make([]string, ncols)
	for i := range br.hdr.Cols {
		n, err := br.readUint32()
		if err != nil {
			return nil, fmt.Errorf("wire: reading column %d name length: %w", i, err)
		}
		if n > maxNameLen {
			return nil, fmt.Errorf("wire: column %d name of %d bytes", i, n)
		}
		b, err := br.readN(int(n))
		if err != nil {
			return nil, fmt.Errorf("wire: reading column %d name: %w", i, err)
		}
		br.hdr.Cols[i] = string(b)
	}
	return br, nil
}

// Header returns the stream's result header.
func (br *BatchReader) Header() ResultHeader { return br.hdr }

// Cols returns the streamed result's column names.
func (br *BatchReader) Cols() []string { return br.hdr.Cols }

// Next returns the next batch of rows, or nil after the end frame has been
// consumed and validated. An EOF before the end frame is a truncated
// stream and reported as an error.
func (br *BatchReader) Next() ([][]value.Value, error) {
	if br.done {
		return nil, nil
	}
	tag, err := br.readByte()
	if err != nil {
		return nil, fmt.Errorf("wire: stream truncated before end frame: %w", err)
	}
	switch tag {
	case frameEnd:
		total, err := br.readUint64()
		if err != nil {
			return nil, fmt.Errorf("wire: truncated end frame: %w", err)
		}
		if total != uint64(br.rows) {
			return nil, fmt.Errorf("wire: stream delivered %d rows, end frame declares %d", br.rows, total)
		}
		br.done = true
		return nil, nil
	case frameBatch:
		return br.readBatch()
	}
	return nil, fmt.Errorf("wire: unknown frame tag %#x", tag)
}

// readBatch decodes one batch frame's rows, checking the payload decodes
// to exactly nrows × ncols values with no bytes left over.
func (br *BatchReader) readBatch() ([][]value.Value, error) {
	nrows, err := br.readUint32()
	if err != nil {
		return nil, fmt.Errorf("wire: truncated batch row count: %w", err)
	}
	if nrows > maxRowsPerBatch {
		return nil, fmt.Errorf("wire: batch declares %d rows", nrows)
	}
	payload, err := br.readUint32()
	if err != nil {
		return nil, fmt.Errorf("wire: truncated batch payload length: %w", err)
	}
	if payload > maxBatchPayload {
		return nil, fmt.Errorf("wire: batch declares %d payload bytes", payload)
	}
	b, err := br.readN(int(payload))
	if err != nil {
		return nil, fmt.Errorf("wire: truncated batch payload: %w", err)
	}
	ncols := len(br.hdr.Cols)
	rows := make([][]value.Value, nrows)
	for i := range rows {
		row := make([]value.Value, ncols)
		for j := range row {
			v, n, err := DecodeValue(b)
			if err != nil {
				return nil, fmt.Errorf("wire: batch row %d col %d: %w", i, j, err)
			}
			row[j] = v
			b = b[n:]
		}
		rows[i] = row
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: batch payload has %d trailing bytes", len(b))
	}
	br.rows += int64(nrows)
	return rows, nil
}

// RowsRead reports the rows decoded so far.
func (br *BatchReader) RowsRead() int64 { return br.rows }

func (br *BatchReader) readByte() (byte, error) {
	b, err := br.readN(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (br *BatchReader) readUint32() (uint32, error) {
	b, err := br.readN(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (br *BatchReader) readUint64() (uint64, error) {
	b, err := br.readN(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// readN reads exactly n bytes into the reader's scratch buffer. The
// returned slice is valid until the next readN call.
func (br *BatchReader) readN(n int) ([]byte, error) {
	if cap(br.buf) < n {
		br.buf = make([]byte, n)
	}
	b := br.buf[:n]
	if _, err := io.ReadFull(br.r, b); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return nil, err
	}
	return b, nil
}
