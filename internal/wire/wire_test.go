package wire

import (
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func TestRoundTripAllKinds(t *testing.T) {
	vals := []value.Value{
		value.NewNull(),
		value.NewInt(-12345),
		value.NewInt(1 << 60),
		value.NewFloat(3.14159),
		value.NewStr("hello"),
		value.NewStr(""),
		value.NewBytes([]byte{0, 1, 2, 255}),
		value.NewDate(9131),
	}
	var buf []byte
	var err error
	for _, v := range vals {
		if buf, err = AppendValue(buf, v); err != nil {
			t.Fatal(err)
		}
	}
	got, err := DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if vals[i].K != got[i].K && !(vals[i].K == value.Bool && got[i].K == value.Int) {
			t.Errorf("value %d kind %v -> %v", i, vals[i].K, got[i].K)
		}
		if !vals[i].IsNull() && value.Compare(vals[i], got[i]) != 0 {
			t.Errorf("value %d: %v -> %v", i, vals[i], got[i])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("empty input")
	}
	if _, _, err := DecodeValue([]byte{1, 0}); err == nil {
		t.Error("truncated int")
	}
	if _, _, err := DecodeValue([]byte{3, 0, 0, 0, 10, 'a'}); err == nil {
		t.Error("truncated string payload")
	}
	if _, _, err := DecodeValue([]byte{99}); err == nil {
		t.Error("unknown tag")
	}
}

func TestBytesRoundTripProperty(t *testing.T) {
	f := func(b []byte, s string, i int64) bool {
		var buf []byte
		buf, err1 := AppendValue(buf, value.NewBytes(b))
		buf, err2 := AppendValue(buf, value.NewStr(s))
		buf, err3 := AppendValue(buf, value.NewInt(i))
		got, err := DecodeAll(buf)
		if err1 != nil || err2 != nil || err3 != nil || err != nil || len(got) != 3 {
			return false
		}
		return string(got[0].B) == string(b) && got[1].S == s && got[2].I == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAppendValueUnknownKind pins the fix for the silent tagNull
// fallthrough: framing a value of an out-of-vocabulary kind must surface
// an error, not ship a NULL.
func TestAppendValueUnknownKind(t *testing.T) {
	bogus := value.Value{K: value.Kind(250)}
	if _, err := AppendValue(nil, bogus); err == nil {
		t.Fatal("unknown kind framed silently")
	}
}

// TestDecoderAliasesDecodeValueCopies pins the two forms of the one value
// decoder: Decoder.Value and DecodeAll point into the buffer (capacity-
// limited), DecodeValue owns its payload.
func TestDecoderAliasesDecodeValueCopies(t *testing.T) {
	var buf []byte
	for _, v := range []value.Value{value.NewBytes([]byte("abc")), value.NewStr("hello"), value.NewInt(7), value.NewStr(""), value.NewBytes(nil)} {
		buf, _ = AppendValue(buf, v)
	}
	owned, n, err := DecodeValue(buf)
	if err != nil || n != 8 {
		t.Fatalf("DecodeValue: n=%d err=%v", n, err)
	}
	vals, err := DecodeAll(buf)
	if err != nil || len(vals) != 5 {
		t.Fatalf("DecodeAll: %d values, err %v", len(vals), err)
	}
	if &vals[0].B[0] != &buf[5] || cap(vals[0].B) != 3 {
		t.Errorf("DecodeAll Bytes value does not alias the blob with a limited capacity (cap %d)", cap(vals[0].B))
	}
	if vals[1].S != "hello" || vals[2].I != 7 || vals[3].K != value.Str || vals[3].S != "" || vals[4].K != value.Bytes || len(vals[4].B) != 0 {
		t.Errorf("DecodeAll values wrong: %v", vals)
	}
	buf[5] = 'X' // the blob is dead to its owner; only the aliasing form may see this
	if string(owned.B) != "abc" || string(vals[0].B) != "Xbc" {
		t.Errorf("after overwriting the buffer: DecodeValue %q (want abc), DecodeAll %q (want Xbc)", owned.B, vals[0].B)
	}
	// A frame may not run past the end the caller gives.
	d := NewDecoder(buf)
	if _, _, err := d.Value(8, 12); err == nil {
		t.Error("string frame cut by end decoded")
	}
	if _, err := DecodeAll(buf[:len(buf)-1]); err == nil {
		t.Error("truncated blob decoded")
	}
}

// TestDecodeAllAllocs: one slice and one string for the whole blob, however
// many values it frames.
func TestDecodeAllAllocs(t *testing.T) {
	var buf []byte
	for i := 0; i < 2000; i++ {
		buf, _ = AppendValue(buf, value.NewBytes([]byte{byte(i), 1, 2, 3, 4, 5, 6, 7}))
		buf, _ = AppendValue(buf, value.NewStr("s"))
	}
	if n := testing.AllocsPerRun(20, func() {
		if vals, err := DecodeAll(buf); err != nil || len(vals) != 4000 {
			t.Fatalf("%d values, err %v", len(vals), err)
		}
	}); n > 2 {
		t.Errorf("DecodeAll of 4000 values: %.0f allocations, want 2", n)
	}
}

// TestDecoderSkipMirrorsValue: Skip accepts and rejects exactly the frames
// Value does, with the same lengths and errors, and a buffer walked once by
// Skip alone decodes its strings afterwards without another allocation —
// the string copy was made on the way.
func TestDecoderSkipMirrorsValue(t *testing.T) {
	var buf []byte
	for _, v := range []value.Value{value.NewNull(), value.NewInt(-4), value.NewStr("hello"), value.NewDate(19950101),
		value.NewFloat(2.5), value.NewBytes([]byte("abc")), value.NewStr("")} {
		buf, _ = AppendValue(buf, v)
	}
	buf = append(buf, 99) // unknown tag
	for end := 0; end <= len(buf); end++ {
		skip, val := NewDecoder(buf), NewDecoder(buf)
		for pos := 0; pos < end; {
			n, serr := skip.Skip(pos, end)
			_, m, verr := val.Value(pos, end)
			if (serr == nil) != (verr == nil) || (serr != nil && serr.Error() != verr.Error()) || n != m {
				t.Fatalf("frame at %d of buf[:%d]: Skip says (%d, %v), Value says (%d, %v)", pos, end, n, serr, m, verr)
			}
			if serr != nil {
				break
			}
			pos += n
		}
	}
	d := NewDecoder(buf)
	for pos := 0; pos < len(buf)-1; {
		n, err := d.Skip(pos, len(buf)-1)
		if err != nil {
			t.Fatal(err)
		}
		pos += n
	}
	if n := testing.AllocsPerRun(20, func() {
		if v, _, err := d.Value(10, len(buf)); err != nil || v.S != "hello" {
			t.Fatalf("%v, err %v", v, err)
		}
	}); n != 0 {
		t.Errorf("Value on a Str frame after a full Skip walk: %.0f allocations, want 0", n)
	}
}
