// Package wire frames SQL values for transport between the untrusted
// server and the trusted client: the GROUP_CONCAT aggregate UDF — the
// paper's GROUP() operator for split aggregation over grouped data (§5.3)
// — ships every ciphertext of a group to the client in one framed blob,
// and the client decodes it back into values to decrypt and aggregate
// locally.
//
// On top of the per-value frames, batch.go defines the streamed result
// protocol: a ResultHeader naming the columns followed by incremental row
// batches (BatchWriter/BatchReader over io.Writer/io.Reader), so the
// server can ship encrypted intermediate results mid-scan and the client
// can begin decrypting before the server's scan finishes. A batch is
// column-major, and each column ships plain or dictionary-coded, whichever
// is smaller. Every malformed input a reader meets is an error wrapping
// ErrCorrupt.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/value"
)

// kind tags mirror value.Kind but are pinned for wire stability.
const (
	tagNull  = 0
	tagInt   = 1
	tagBytes = 2
	tagStr   = 3
	tagDate  = 4
	tagFloat = 5
)

// AppendValue appends the framed encoding of v to dst. A kind outside the
// wire vocabulary is a framing bug in the caller, not data: it returns an
// error naming the kind so the corruption surfaces at the encoder instead
// of silently shipping a NULL.
func AppendValue(dst []byte, v value.Value) ([]byte, error) {
	switch v.K {
	case value.Null:
		return append(dst, tagNull), nil
	case value.Int, value.Bool:
		dst = append(dst, tagInt)
		return binary.BigEndian.AppendUint64(dst, uint64(v.I)), nil
	case value.Date:
		dst = append(dst, tagDate)
		return binary.BigEndian.AppendUint64(dst, uint64(v.I)), nil
	case value.Float:
		dst = append(dst, tagFloat)
		// floats only appear in already-plaintext aggregates; round-trip
		// through the integer bits representation.
		return binary.BigEndian.AppendUint64(dst, floatBits(v.F)), nil
	case value.Str:
		dst = append(dst, tagStr)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.S)))
		return append(dst, v.S...), nil
	case value.Bytes:
		dst = append(dst, tagBytes)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.B)))
		return append(dst, v.B...), nil
	}
	return dst, fmt.Errorf("wire: cannot frame value of kind %v", v.K)
}

// parseFrame validates the frame at the head of b: its tag, the 8-byte
// scalar of an Int, Date or Float frame, and its length — a Str or Bytes
// payload is b[5:n]. It is the one frame parser; DecodeValue and
// Decoder.Value differ only in how they materialize a payload.
func parseFrame(b []byte) (tag byte, x uint64, n int, err error) {
	if len(b) == 0 {
		return 0, 0, 0, corrupt("wire: empty input")
	}
	switch tag = b[0]; tag {
	case tagNull:
		return tag, 0, 1, nil
	case tagInt, tagDate, tagFloat:
		if len(b) < 9 {
			return 0, 0, 0, corrupt("wire: truncated integer")
		}
		return tag, binary.BigEndian.Uint64(b[1:9]), 9, nil
	case tagStr, tagBytes:
		if len(b) < 5 {
			return 0, 0, 0, corrupt("wire: truncated length")
		}
		n := int(binary.BigEndian.Uint32(b[1:5]))
		if len(b) < 5+n {
			return 0, 0, 0, corrupt("wire: truncated payload (need %d bytes)", n)
		}
		return tag, 0, 5 + n, nil
	}
	return 0, 0, 0, corrupt("wire: unknown tag %d", b[0])
}

// scalar builds the value of a Null, Int, Date or Float frame.
func scalar(tag byte, x uint64) value.Value {
	switch tag {
	case tagInt:
		return value.NewInt(int64(x))
	case tagDate:
		return value.NewDate(int64(x))
	case tagFloat:
		return value.NewFloat(bitsFloat(x))
	}
	return value.NewNull()
}

// DecodeValue decodes one framed value from b, returning it and the number
// of bytes consumed. The value owns its payload: b may be reused.
func DecodeValue(b []byte) (value.Value, int, error) {
	tag, x, n, err := parseFrame(b)
	switch {
	case err != nil:
		return value.Value{}, 0, err
	case tag == tagStr:
		return value.NewStr(string(b[5:n])), n, nil
	case tag == tagBytes:
		return value.NewBytes(append([]byte(nil), b[5:n]...)), n, nil
	}
	return scalar(tag, x), n, nil
}

// Decoder decodes framed values out of one buffer without copying their
// payloads: Bytes values are sub-slices of the buffer (capacity-limited, so
// an append cannot reach a neighbour) and Str values sub-slices of a single
// string(buf) made when the first Str frame is met. The values alias the
// buffer for as long as they live — the caller must never write to it again
// and must treat the values as read-only.
//
// The string copy is the decoder's only mutable state: once every frame of
// the buffer has been through Value or Skip, neither method writes to the
// Decoder again and concurrent readers may share it.
type Decoder struct {
	buf []byte
	str string
}

// NewDecoder returns a Decoder over buf.
func NewDecoder(buf []byte) Decoder { return Decoder{buf: buf} }

// Value decodes the frame at buf[pos:end] (a frame may not run past end),
// returning the value and the number of bytes consumed.
func (d *Decoder) Value(pos, end int) (value.Value, int, error) {
	tag, x, n, err := parseFrame(d.buf[pos:end])
	switch {
	case err != nil:
		return value.Value{}, 0, err
	case tag == tagStr:
		if d.str == "" {
			d.str = string(d.buf)
		}
		return value.NewStr(d.str[pos+5 : pos+n]), n, nil
	case tag == tagBytes:
		return value.NewBytes(d.buf[pos+5 : pos+n : pos+n]), n, nil
	}
	return scalar(tag, x), n, nil
}

// Skip validates the frame at buf[pos:end] exactly as Value does and returns
// its length without building the value — how a reader steps over a frame
// it does not want.
func (d *Decoder) Skip(pos, end int) (int, error) {
	tag, _, n, err := parseFrame(d.buf[pos:end])
	if tag == tagStr && d.str == "" {
		d.str = string(d.buf)
	}
	return n, err
}

// DecodeAll decodes a concatenation of framed values. The values alias b
// (see Decoder): the one caller folds a GROUP_CONCAT blob and drops them.
func DecodeAll(b []byte) ([]value.Value, error) {
	count := 0
	for pos := 0; pos < len(b); count++ {
		_, _, n, err := parseFrame(b[pos:])
		if err != nil {
			return nil, err
		}
		pos += n
	}
	out := make([]value.Value, 0, count)
	d := NewDecoder(b)
	for pos := 0; pos < len(b); {
		v, n, _ := d.Value(pos, len(b)) // validated by the counting pass
		out = append(out, v)
		pos += n
	}
	return out, nil
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func bitsFloat(x uint64) float64 { return math.Float64frombits(x) }
