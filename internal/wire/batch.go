package wire

// Streamed result protocol. A result stream is one header frame, any
// number of batch frames, and one end frame:
//
//	header: 0xA1 | u32 ncols | ncols × (u32 len | name bytes)
//	batch:  0xA2 | u32 nrows | u32 payload len | ncols × column
//	end:    0xA3 | u64 total rows
//
// A batch is column-major. Each column opens with a mode byte and is coded
// whichever way is strictly smaller:
//
//	plain: 0 | nrows framed values
//	dict:  w | u32 ndict | ndict distinct framed values | nrows × w-byte codes
//
// w ∈ {1, 2, 4} is the code width; the dictionary holds the column's
// distinct values in first-occurrence order and each big-endian code
// indexes it. Served frames hold at most 1 024 rows, so they use widths 1
// and 2; only a direct WriteBatch of more than 65 536 distinct values needs
// 4-byte codes. DET and OPE ciphertexts repeat, so the low-cardinality
// columns MONOMI ships for client-side grouping cost a code per row, not a
// copy.
// The dictionary reveals only which cells of one frame are equal — what the
// server already sees of the ciphertexts it holds.
//
// Values — plain ones and dictionary entries — reuse the per-value tags of
// wire.go (the same encoding GROUP_CONCAT blobs use), so the stream and the
// blobs inside it speak one value vocabulary. The end frame carries the
// total row count as an integrity check: a reader that sees end with a
// mismatched count — or EOF with no end frame — reports a truncated stream
// instead of returning a silently short result.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/value"
)

// ErrCorrupt is wrapped by every error a reader returns for bytes that are
// not a well-formed stream or value frame: truncation, an unknown tag, a
// bad column mode, an out-of-range dictionary size or code, trailing bytes,
// or a frame header that cannot describe its payload.
var ErrCorrupt = errors.New("wire: corrupt frame")

// corruptError is a leaf corruption error: its message is its own, and
// errors.Is matches it against ErrCorrupt.
type corruptError struct{ msg string }

func (e *corruptError) Error() string { return e.msg }
func (e *corruptError) Unwrap() error { return ErrCorrupt }

// corrupt builds a corruptError. It is never inlined, which keeps error
// formatting out of parseFrame, the per-value loop of every reader.
//
//go:noinline
func corrupt(format string, args ...any) error {
	return &corruptError{fmt.Sprintf(format, args...)}
}

// Frame type tags. Distinct from the value tags (0–5) so a reader
// desynchronized into value territory fails immediately.
const (
	frameHeader byte = 0xA1
	frameBatch  byte = 0xA2
	frameEnd    byte = 0xA3
)

// modePlain opens a plainly coded column; any other mode byte is a
// dictionary's code width.
const modePlain byte = 0

// Sanity bounds: a frame announcing more than these is corrupt, and
// rejecting it early keeps a fuzzed or truncated stream from driving a
// multi-gigabyte allocation.
const (
	maxCols         = 1 << 16
	maxRowsPerBatch = 1 << 24
	maxBatchPayload = 1 << 30
	maxNameLen      = 1 << 16
)

// payloadChunk is how much of a batch payload the reader reads at a time:
// the payload's buffer grows only as chunks arrive.
const payloadChunk = 1 << 20

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
// one batch frame per WriteBatch, the end frame at Close. Its frame buffer
// and dictionary state are reused from frame to frame, so a steady stream
// allocates nothing per cell, and its output is a pure function of the rows.
type BatchWriter struct {
	w     io.Writer
	ncols int
	buf   []byte
	dict  dictionary
	bytes int64
	rows  int64
}

// dictionary is the writer's scratch for dictionary-coding one column.
type dictionary struct {
	index map[uint64]uint32 // FNV-1a of a framed value → its code
	vals  []byte            // the distinct framed values, first-occurrence order
	ends  []uint32          // entry k is vals[ends[k-1]:ends[k]]
	codes []uint32          // each row's code
}

// NewBatchWriter writes the header frame for cols and returns a writer for
// the stream's batches.
func NewBatchWriter(w io.Writer, cols []string) (*BatchWriter, error) {
	bw := &BatchWriter{w: w, ncols: len(cols), dict: dictionary{index: make(map[uint64]uint32)}}
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
	if len(rows) > 0 && bw.ncols == 0 {
		return fmt.Errorf("wire: %d rows of a result without columns", len(rows))
	}
	for _, row := range rows {
		if len(row) != bw.ncols {
			return fmt.Errorf("wire: row has %d values, header declares %d columns", len(row), bw.ncols)
		}
	}
	b := append(bw.buf[:0], frameBatch)
	b = binary.BigEndian.AppendUint32(b, uint32(len(rows)))
	b = binary.BigEndian.AppendUint32(b, 0) // payload length, patched below
	payloadStart := len(b)
	var err error
	for j := 0; j < bw.ncols; j++ {
		if b, err = bw.appendColumn(b, rows, j); err != nil {
			return err
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

// appendColumn appends column j of rows to b. It frames the column plain
// while building its dictionary alongside, then rewrites the column as
// dictionary and codes if that is strictly smaller. A hash collision
// abandons the dictionary.
func (bw *BatchWriter) appendColumn(b []byte, rows [][]value.Value, j int) ([]byte, error) {
	start := len(b)
	b = append(b, modePlain)
	d := &bw.dict
	d.reset()
	coding := true
	for _, row := range rows {
		at := len(b)
		var err error
		if b, err = AppendValue(b, row[j]); err != nil {
			return b, err
		}
		coding = coding && d.add(b[at:])
	}
	if !coding {
		return b, nil
	}
	width := codeWidth(len(d.ends))
	if 4+len(d.vals)+len(rows)*width >= len(b)-start-1 {
		return b, nil
	}
	b = append(b[:start], byte(width))
	b = binary.BigEndian.AppendUint32(b, uint32(len(d.ends)))
	b = append(b, d.vals...)
	for _, c := range d.codes {
		switch width {
		case 1:
			b = append(b, byte(c))
		case 2:
			b = binary.BigEndian.AppendUint16(b, uint16(c))
		default:
			b = binary.BigEndian.AppendUint32(b, c)
		}
	}
	return b, nil
}

// codeWidth is the narrowest code width that indexes ndict entries.
func codeWidth(ndict int) int {
	switch {
	case ndict <= 1<<8:
		return 1
	case ndict <= 1<<16:
		return 2
	}
	return 4
}

func (d *dictionary) reset() {
	clear(d.index)
	d.vals, d.ends, d.codes = d.vals[:0], d.ends[:0], d.codes[:0]
}

// add codes one framed value, reporting false on a hash collision — two
// different values under one hash — which leaves the column plain.
func (d *dictionary) add(v []byte) bool {
	h := fnv1a(v)
	code, ok := d.index[h]
	if !ok {
		code = uint32(len(d.ends))
		d.index[h] = code
		d.vals = append(d.vals, v...)
		d.ends = append(d.ends, uint32(len(d.vals)))
	} else if !bytes.Equal(d.entry(code), v) {
		return false
	}
	d.codes = append(d.codes, code)
	return true
}

func (d *dictionary) entry(code uint32) []byte {
	lo := uint32(0)
	if code > 0 {
		lo = d.ends[code-1]
	}
	return d.vals[lo:d.ends[code]]
}

// fnv1a is the 64-bit FNV-1a hash: unseeded, so a frame's bytes depend on
// its rows alone.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
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

// BatchReader decodes a result stream from r, validating framing as it
// goes: truncated or corrupt frames return errors wrapping ErrCorrupt,
// never short results.
//
// A batch is borrowed: Next refills one cell slice and one row slice per
// reader, so the rows it returns are valid until the next call, and a
// consumer that keeps rows past it copies them. The bytes a cell holds are
// not reused: Str and Bytes cells alias their frame's own payload buffer
// (see Decoder), so a Value copied out of a batch stays valid. Cells coded
// by one dictionary entry share one Value: consumers must treat every cell
// as read-only.
type BatchReader struct {
	r     io.Reader
	cols  []string
	buf   []byte          // scratch for header and end frames
	cells []value.Value   // the last batch's cells, row-major
	batch [][]value.Value // the last batch's rows, windows of cells
	dict  []value.Value   // one dictionary-coded column's entries
	rows  int64
	done  bool
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
		return nil, corrupt("wire: stream starts with tag %#x, want header", tag)
	}
	ncols, err := br.readUint32()
	if err != nil {
		return nil, fmt.Errorf("wire: reading column count: %w", err)
	}
	if ncols > maxCols {
		return nil, corrupt("wire: header declares %d columns", ncols)
	}
	br.cols = make([]string, ncols)
	for i := range br.cols {
		n, err := br.readUint32()
		if err != nil {
			return nil, fmt.Errorf("wire: reading column %d name length: %w", i, err)
		}
		if n > maxNameLen {
			return nil, corrupt("wire: column %d name of %d bytes", i, n)
		}
		b, err := br.readN(int(n))
		if err != nil {
			return nil, fmt.Errorf("wire: reading column %d name: %w", i, err)
		}
		br.cols[i] = string(b)
	}
	return br, nil
}

// Cols returns the streamed result's column names.
func (br *BatchReader) Cols() []string { return br.cols }

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
			return nil, corrupt("wire: stream delivered %d rows, end frame declares %d", br.rows, total)
		}
		br.done = true
		return nil, nil
	case frameBatch:
		return br.readBatch()
	}
	return nil, corrupt("wire: unknown frame tag %#x", tag)
}

// readBatch decodes one batch frame's rows, checking the payload decodes
// to exactly ncols columns of nrows values with no bytes left over.
func (br *BatchReader) readBatch() ([][]value.Value, error) {
	nrows, err := br.readUint32()
	if err != nil {
		return nil, fmt.Errorf("wire: truncated batch row count: %w", err)
	}
	payload, err := br.readUint32()
	if err != nil {
		return nil, fmt.Errorf("wire: truncated batch payload length: %w", err)
	}
	// Every column costs a mode byte and every cell at least one byte (a
	// tag or a code), so a header the payload cannot hold is corrupt before
	// a byte of it is read.
	ncols := len(br.cols)
	switch {
	case nrows > maxRowsPerBatch:
		return nil, corrupt("wire: batch declares %d rows", nrows)
	case payload > maxBatchPayload:
		return nil, corrupt("wire: batch declares %d payload bytes", payload)
	case nrows > 0 && ncols == 0:
		return nil, corrupt("wire: batch declares %d rows of no columns", nrows)
	case (uint64(nrows)+1)*uint64(ncols) > uint64(payload):
		return nil, corrupt("wire: batch of %d rows × %d columns in %d payload bytes", nrows, ncols, payload)
	}
	b, err := br.readPayload(int(payload))
	if err != nil {
		return nil, fmt.Errorf("wire: truncated batch payload: %w", err)
	}
	// Every cell is written below; clearing the last batch's first lets a
	// shorter batch drop the payloads its cells pointed into.
	n := int(nrows)
	clear(br.cells)
	br.cells = slices.Grow(br.cells[:0], n*ncols)[:n*ncols]
	cells := br.cells
	d := NewDecoder(b)
	pos := 0
	for j := 0; j < ncols; j++ {
		if pos, err = br.readColumn(&d, pos, cells, j, ncols); err != nil {
			return nil, fmt.Errorf("wire: batch col %d: %w", j, err)
		}
	}
	if pos != len(b) {
		return nil, corrupt("wire: batch payload has %d trailing bytes", len(b)-pos)
	}
	rows := slices.Grow(br.batch[:0], n)[:n]
	if rows == nil {
		rows = [][]value.Value{} // an empty batch is not the end of the stream
	}
	for i := range rows {
		rows[i] = cells[i*ncols : (i+1)*ncols : (i+1)*ncols]
	}
	br.batch = rows
	br.rows += int64(n)
	return rows, nil
}

// readColumn decodes column j, which starts at pos in d's buffer, into the
// row-major cells of an ncols-wide batch and returns the position after it.
func (br *BatchReader) readColumn(d *Decoder, pos int, cells []value.Value, j, ncols int) (int, error) {
	buf, nrows := d.buf, len(cells)/ncols
	if pos >= len(buf) {
		return pos, corrupt("truncated column mode")
	}
	width := int(buf[pos])
	pos++
	if width == int(modePlain) {
		for i := 0; i < nrows; i++ {
			v, n, err := d.Value(pos, len(buf))
			if err != nil {
				return pos, fmt.Errorf("row %d: %w", i, err)
			}
			cells[i*ncols+j] = v
			pos += n
		}
		return pos, nil
	}
	if width != 1 && width != 2 && width != 4 {
		return pos, corrupt("column mode %d", width)
	}
	if len(buf)-pos < 4 {
		return pos, corrupt("truncated dictionary size")
	}
	ndict := int(binary.BigEndian.Uint32(buf[pos:]))
	pos += 4
	// Each entry is at least one byte, and a writer never codes more
	// distinct values than rows.
	if ndict > nrows || ndict > len(buf)-pos {
		return pos, corrupt("dictionary of %d entries for %d rows in %d bytes", ndict, nrows, len(buf)-pos)
	}
	dict := slices.Grow(br.dict[:0], ndict)[:ndict]
	br.dict = dict
	for k := range dict {
		v, n, err := d.Value(pos, len(buf))
		if err != nil {
			return pos, fmt.Errorf("dictionary entry %d: %w", k, err)
		}
		dict[k] = v
		pos += n
	}
	if (len(buf)-pos)/width < nrows {
		return pos, corrupt("truncated codes")
	}
	for i := 0; i < nrows; i++ {
		var code int
		switch width {
		case 1:
			code = int(buf[pos])
		case 2:
			code = int(binary.BigEndian.Uint16(buf[pos:]))
		default:
			code = int(binary.BigEndian.Uint32(buf[pos:]))
		}
		if code >= ndict {
			return pos, corrupt("row %d code %d of a %d-entry dictionary", i, code, ndict)
		}
		cells[i*ncols+j] = dict[code]
		pos += width
	}
	return pos, nil
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
		return nil, readErr(err)
	}
	return b, nil
}

// readPayload reads an n-byte batch payload into a buffer of its own — the
// batch's cells alias it — growing the buffer a bounded chunk at a time as
// bytes arrive, so what a header declares costs memory only once the
// stream has actually sent it.
func (br *BatchReader) readPayload(n int) ([]byte, error) {
	b := make([]byte, 0, min(n, payloadChunk))
	for len(b) < n {
		k := min(n-len(b), payloadChunk)
		b = slices.Grow(b, k)
		if _, err := io.ReadFull(br.r, b[len(b):len(b)+k]); err != nil {
			return nil, readErr(err)
		}
		b = b[:len(b)+k]
	}
	return b, nil
}

// readErr classifies a failed read: running out of bytes mid-frame is a
// truncated, hence corrupt, stream; any other error is the transport's own.
func readErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return corrupt("EOF")
	}
	return err
}
