package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"

	"repro/internal/value"
)

// specials are values that differ only in kind or bits: a reader that
// confuses Int with Date, +0.0 with -0.0, one NaN with another, or empty
// Str with empty Bytes with NULL fails the round trip on them.
var specials = []value.Value{
	value.NewNull(),
	value.NewInt(5),
	value.NewDate(5),
	value.NewFloat(0),
	value.NewFloat(math.Copysign(0, -1)),
	value.NewFloat(math.Float64frombits(0x7ff8000000000001)),
	value.NewFloat(math.Float64frombits(0xfff8000000000000)),
	value.NewFloat(math.Float64frombits(0x7ff0000000000001)),
	value.NewStr(""),
	value.NewBytes([]byte{}),
	value.NewStr("x"),
	value.NewBytes([]byte{'x'}),
	value.NewInt(-1),
}

// sameCell reports whether got carries exactly want's kind and bits.
func sameCell(want, got value.Value) bool {
	return want.K == got.K && want.I == got.I &&
		math.Float64bits(want.F) == math.Float64bits(got.F) &&
		want.S == got.S && bytes.Equal(want.B, got.B)
}

// keyed returns the value a column of the given kind holds for key x.
func keyed(kind value.Kind, x int) value.Value {
	switch kind {
	case value.Date:
		return value.NewDate(int64(x))
	case value.Str:
		return value.NewStr(fmt.Sprintf("s%d", x))
	case value.Bytes:
		b := make([]byte, 16)
		binary.BigEndian.PutUint64(b, uint64(x)*0x9e3779b97f4a7c15)
		return value.NewBytes(b)
	}
	return value.NewInt(int64(x))
}

// randomColumn fills column j of rows with one of the shapes a result
// column takes: a few specials drawn at random, runs of r equal keyed
// values (a controlled cardinality), or unique ciphertexts.
func randomColumn(rng *rand.Rand, rows [][]value.Value, j int) {
	kinds := []value.Kind{value.Int, value.Date, value.Str, value.Bytes}
	switch rng.Intn(3) {
	case 0:
		pool := specials[:1+rng.Intn(len(specials))]
		for i := range rows {
			rows[i][j] = pool[rng.Intn(len(pool))]
		}
	case 1:
		kind, run := kinds[rng.Intn(len(kinds))], 2+rng.Intn(40)
		for i := range rows {
			rows[i][j] = keyed(kind, i/run)
		}
	default:
		for i := range rows {
			b := make([]byte, 16)
			rng.Read(b)
			rows[i][j] = value.NewBytes(b)
		}
	}
}

// frameModes walks the batch frame at the head of b and returns each
// column's mode byte, so a test can tell which codings it exercised.
func frameModes(t testing.TB, b []byte, ncols int) []byte {
	t.Helper()
	if b[0] != frameBatch {
		t.Fatalf("frame tag %#x, want batch", b[0])
	}
	nrows := int(binary.BigEndian.Uint32(b[1:]))
	p := b[9:]
	skip := func(k int) {
		for ; k > 0; k-- {
			_, _, n, err := parseFrame(p)
			if err != nil {
				t.Fatal(err)
			}
			p = p[n:]
		}
	}
	modes := make([]byte, ncols)
	for j := range modes {
		modes[j], p = p[0], p[1:]
		if modes[j] == modePlain {
			skip(nrows)
			continue
		}
		ndict := int(binary.BigEndian.Uint32(p))
		p = p[4:]
		skip(ndict)
		p = p[nrows*int(modes[j]):]
	}
	return modes
}

// writeStream frames batches as one stream and returns its bytes and the
// offset at which each batch frame starts.
func writeStream(t testing.TB, cols []string, batches ...[][]value.Value) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	bw, err := NewBatchWriter(&buf, cols)
	if err != nil {
		t.Fatal(err)
	}
	var starts []int
	for _, b := range batches {
		starts = append(starts, buf.Len())
		if err := bw.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), starts
}

// readStream decodes a whole stream.
func readStream(t testing.TB, wireBytes []byte) [][]value.Value {
	t.Helper()
	br, err := NewBatchReader(bytes.NewReader(wireBytes))
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]value.Value
	for {
		b, err := br.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return rows
		}
		rows = keepRows(rows, b)
	}
}

func checkRoundTrip(t *testing.T, want, got [][]value.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if !sameCell(want[i][j], got[i][j]) {
				t.Fatalf("row %d col %d: %#v decoded as %#v", i, j, want[i][j], got[i][j])
			}
		}
	}
}

// TestDictRoundTripProperty frames seeded random batches — mixed kinds,
// special bit patterns, cardinalities from one value to all distinct —
// and requires every cell back with its kind and bits, with plain and
// both narrow dictionary codings exercised along the way.
func TestDictRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	sizes := []int{0, 1, 5, 63, 64, 65, 300, 1024}
	seen := map[byte]int{}
	for iter := 0; iter < 60; iter++ {
		ncols := 1 + rng.Intn(5)
		cols := make([]string, ncols)
		var batches [][][]value.Value
		var all [][]value.Value
		for k := rng.Intn(3) + 1; k > 0; k-- {
			rows := make([][]value.Value, sizes[rng.Intn(len(sizes))])
			for i := range rows {
				rows[i] = make([]value.Value, ncols)
			}
			for j := 0; j < ncols; j++ {
				randomColumn(rng, rows, j)
			}
			batches = append(batches, rows)
			all = append(all, rows...)
		}
		wireBytes, starts := writeStream(t, cols, batches...)
		for _, s := range starts {
			for _, m := range frameModes(t, wireBytes[s:], ncols) {
				seen[m]++
			}
		}
		checkRoundTrip(t, all, readStream(t, wireBytes))
	}
	t.Logf("columns per mode: %v", seen)
	for _, m := range []byte{modePlain, 1, 2} {
		if seen[m] == 0 {
			t.Errorf("no column framed in mode %d (modes seen: %v)", m, seen)
		}
	}
}

// TestDictWideCodes writes one batch with more than 65 536 distinct values
// directly, which needs 4-byte codes.
func TestDictWideCodes(t *testing.T) {
	rows := make([][]value.Value, 140_000)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i / 2)), value.NewDate(int64(i % 3))}
	}
	wireBytes, starts := writeStream(t, []string{"k", "d"}, rows)
	if modes := frameModes(t, wireBytes[starts[0]:], 2); modes[0] != 4 || modes[1] != 1 {
		t.Fatalf("modes = %v, want [4 1]", modes)
	}
	checkRoundTrip(t, rows, readStream(t, wireBytes))
}

// TestDictCodingChoice pins when each coding is chosen: a repeated column
// is dictionary-coded, a unique one and a column whose dictionary would be
// no smaller ship plain.
func TestDictCodingChoice(t *testing.T) {
	const n = 1024
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = []value.Value{
			keyed(value.Bytes, i%3), // 3 distinct: dictionary
			keyed(value.Bytes, i),   // unique: plain
			value.NewNull(),         // 1-byte values: codes would not be smaller
		}
	}
	wireBytes, starts := writeStream(t, []string{"a", "b", "c"}, rows)
	if modes := frameModes(t, wireBytes[starts[0]:], 3); !bytes.Equal(modes, []byte{1, modePlain, modePlain}) {
		t.Fatalf("modes = %v, want [1 0 0]", modes)
	}
	// The dictionary column costs its mode byte, ndict, three 21-byte
	// entries and a code per row.
	plainCell := 1 + 4 + 16
	want := 9 + (1 + 4 + 3*plainCell + n) + (1 + n*plainCell) + (1 + n)
	if got := len(wireBytes) - starts[0] - 9; got != want {
		t.Fatalf("batch frame is %d bytes, want %d", got, want)
	}
	checkRoundTrip(t, rows, readStream(t, wireBytes))
}

// TestDictCodingTie: a dictionary must be strictly smaller to be chosen.
// Five 9-byte Ints with four distinct cost 45 bytes either way and ship
// plain; with three distinct the dictionary's 36 bytes win.
func TestDictCodingTie(t *testing.T) {
	for _, c := range []struct {
		keys []int
		mode byte
	}{{[]int{1, 2, 3, 4, 1}, modePlain}, {[]int{1, 2, 3, 1, 1}, 1}} {
		rows := make([][]value.Value, len(c.keys))
		for i, k := range c.keys {
			rows[i] = []value.Value{value.NewInt(int64(k))}
		}
		wireBytes, starts := writeStream(t, []string{"a"}, rows)
		if modes := frameModes(t, wireBytes[starts[0]:], 1); modes[0] != c.mode {
			t.Errorf("keys %v: mode %d, want %d", c.keys, modes[0], c.mode)
		}
		checkRoundTrip(t, rows, readStream(t, wireBytes))
	}
}

// TestDictHashCollision: two different framed values under one hash must
// not share a code. The collision is forced by planting the second value's
// hash on the first one's entry.
func TestDictHashCollision(t *testing.T) {
	d := dictionary{index: map[uint64]uint32{}}
	x, _ := AppendValue(nil, value.NewInt(5))
	y, _ := AppendValue(nil, value.NewDate(5))
	if !d.add(x) || !d.add(x) {
		t.Fatal("a repeated value was not coded")
	}
	d.index[fnv1a(y)] = 0
	if d.add(y) {
		t.Fatal("a value colliding with another's hash was coded as that value")
	}
}

// TestDictCellsShareEntries: cells coded by one dictionary entry are one
// decoded value, not a copy per row.
func TestDictCellsShareEntries(t *testing.T) {
	rows := make([][]value.Value, 200)
	for i := range rows {
		rows[i] = []value.Value{keyed(value.Bytes, i%2)}
	}
	wireBytes, _ := writeStream(t, []string{"a"}, rows)
	got := readStream(t, wireBytes)
	if &got[0][0].B[0] != &got[2][0].B[0] || &got[0][0].B[0] == &got[1][0].B[0] {
		t.Fatal("cells of one dictionary entry do not share its decoded bytes")
	}
}

// TestDictDeterministic: frames are a pure function of their rows — two
// writers agree byte for byte, and a writer's earlier frames leave no
// state in its later ones.
func TestDictDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func() [][]value.Value {
		rows := make([][]value.Value, 700)
		for i := range rows {
			rows[i] = make([]value.Value, 4)
		}
		for j := 0; j < 4; j++ {
			randomColumn(rng, rows, j)
		}
		return rows
	}
	b1, b2 := mk(), mk()
	cols := []string{"a", "b", "c", "d"}
	x, xs := writeStream(t, cols, b1, b2)
	y, _ := writeStream(t, cols, b1, b2)
	if !bytes.Equal(x, y) {
		t.Fatal("two writers framed the same rows differently")
	}
	// Compare the second batch frame alone: the end frames' totals differ.
	z, zs := writeStream(t, cols, b2)
	if !bytes.Equal(x[xs[1]:len(x)-9], z[zs[0]:len(z)-9]) {
		t.Fatal("a batch framed after another differs from the same batch framed first")
	}
}

// dictRows builds n rows of six 16-byte ciphertext columns: 3, 4, 11 and
// 50 distinct values, then two unique columns.
func dictRows(n int) [][]value.Value {
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = []value.Value{
			keyed(value.Bytes, i%3), keyed(value.Bytes, 10+i%4),
			keyed(value.Bytes, 20+i%11), keyed(value.Bytes, 40+i%50),
			keyed(value.Bytes, 100+i), keyed(value.Bytes, 1<<20+i),
		}
	}
	return rows
}

// TestWriteBatchAllocsFlat: the writer's buffers and dictionary are reused,
// so framing a batch allocates no more for 4 096 rows than for 1 024.
func TestWriteBatchAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		rows := dictRows(n)
		bw, err := NewBatchWriter(io.Discard, make([]string, 6))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := bw.WriteBatch(rows); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1024), allocs(4096)
	t.Logf("WriteBatch: %v allocs at 1 024 rows, %v at 4 096", small, large)
	if large > small {
		t.Fatalf("WriteBatch allocs grew from %v (1 024 rows) to %v (4 096 rows)", small, large)
	}
}

// TestBatchReaderDictAllocsFlat: reading a dictionary-coded column costs a
// fixed number of allocations however many rows it codes — no per-row
// slice, no per-cell copy.
func TestBatchReaderDictAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		rows := make([][]value.Value, n)
		for i := range rows {
			rows[i] = []value.Value{keyed(value.Bytes, i%3)}
		}
		wireBytes, _ := writeStream(t, []string{"a"}, rows)
		return testing.AllocsPerRun(20, func() {
			br, err := NewBatchReader(bytes.NewReader(wireBytes))
			if err != nil {
				t.Fatal(err)
			}
			if b, err := br.Next(); err != nil || len(b) != n {
				t.Fatalf("Next = %d rows, %v", len(b), err)
			}
		})
	}
	small, large := allocs(256), allocs(8192)
	t.Logf("NewBatchReader + Next: %v allocs at 256 rows, %v at 8 192", small, large)
	if large != small {
		t.Fatalf("reader allocs %v for 256 rows, %v for 8 192", small, large)
	}
}

// rawStream is a header for ncols unnamed columns followed by frames.
func rawStream(ncols int, frames ...[]byte) []byte {
	b, _ := AppendHeader(nil, make([]string, ncols))
	for _, f := range frames {
		b = append(b, f...)
	}
	return b
}

// rawBatch is a batch frame declaring nrows rows and len(payload) bytes.
func rawBatch(nrows uint32, payload ...byte) []byte {
	return rawBatchLen(nrows, uint32(len(payload)), payload...)
}

// rawBatchLen is a batch frame declaring nrows rows and declared payload
// bytes, of which only payload follows.
func rawBatchLen(nrows, declared uint32, payload ...byte) []byte {
	b := []byte{frameBatch}
	b = binary.BigEndian.AppendUint32(b, nrows)
	b = binary.BigEndian.AppendUint32(b, declared)
	return append(b, payload...)
}

// readAll drives a reader over data to its first error or its end.
func readAll(data []byte) error {
	br, err := NewBatchReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		b, err := br.Next()
		if err != nil || b == nil {
			return err
		}
	}
}

// TestCorruptBatchHeaderAllocs: a batch header that promises more than its
// payload holds is refused before its rows or payload are allocated.
func TestCorruptBatchHeaderAllocs(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"2^24 rows of 1 column in 3 bytes", rawStream(1, rawBatch(1<<24, 0, 0, 0))},
		{"1 GiB payload, truncated", rawStream(1, rawBatchLen(1, 1<<30))},
		{"2^24 rows of 0 columns", rawStream(0, rawBatch(1<<24))},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := readAll(c.data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 8<<20 {
			t.Errorf("%s: reader allocated %d MB before failing", c.name, d>>20)
		}
	}
}

// TestCorruptErrorsAreTyped: every way a stream can be malformed surfaces
// as an error matching ErrCorrupt.
func TestCorruptErrorsAreTyped(t *testing.T) {
	int7 := []byte{tagInt, 0, 0, 0, 0, 0, 0, 0, 7}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	good := rawBatch(2, cat([]byte{1, 0, 0, 0, 1}, int7, []byte{0, 0})...)
	end := func(n byte) []byte { return []byte{frameEnd, 0, 0, 0, 0, 0, 0, 0, n} }
	if err := readAll(rawStream(1, good, end(2))); err != nil {
		t.Fatalf("well-formed fixture: %v", err)
	}
	// Each malformed batch is followed by the end frame its row count
	// calls for, so only the fault under test can fail the stream.
	cases := map[string][]byte{
		"empty stream":           nil,
		"not a header":           {frameBatch},
		"truncated header":       rawStream(2)[:6],
		"oversized column count": {frameHeader, 0xff, 0xff, 0xff, 0xff},
		"oversized name":         {frameHeader, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff},
		"no end frame":           rawStream(1, good),
		"truncated end frame":    rawStream(1, good, end(2)[:5]),
		"end count mismatch":     rawStream(1, good, end(3)),
		"unknown frame tag":      rawStream(1, []byte{0x42}),
		"truncated batch header": rawStream(1, good[:7]),
		"truncated payload":      rawStream(1, good[:len(good)-1]),
		"too many rows":          rawStream(1, rawBatch(1<<24+1)),
		"oversized payload":      rawStream(1, rawBatchLen(1, 1<<30+1)),
		"rows without columns":   rawStream(0, rawBatch(1), end(1)),
		"rows exceed payload":    rawStream(2, rawBatch(2, 0, 0, 0, 0, 0), end(2)),
		"unknown value tag":      rawStream(1, rawBatch(1, modePlain, 99), end(1)),
		"truncated value":        rawStream(1, rawBatch(1, cat([]byte{modePlain}, int7[:8])...), end(1)),
		"bad mode byte":          rawStream(1, rawBatch(1, 3, 0, 0, 0, 0, 1, 0, 0), end(1)),
		"missing mode byte":      rawStream(2, rawBatch(1, cat([]byte{modePlain}, int7)...), end(1)),
		"truncated ndict":        rawStream(1, rawBatch(1, 1, 0, 0, 0), end(1)),
		"ndict beyond rows":      rawStream(1, rawBatch(2, 1, 0, 0, 0, 3, 0, 0, 0, 0, 0), end(2)),
		"ndict beyond bytes":     rawStream(1, rawBatch(4, cat([]byte{1, 0, 0, 0, 4}, int7)...), end(4)),
		"truncated entry":        rawStream(1, rawBatch(1, cat([]byte{1, 0, 0, 0, 1}, int7[:7])...), end(1)),
		"truncated codes":        rawStream(1, rawBatch(3, cat([]byte{1, 0, 0, 0, 1}, int7, []byte{0, 0})...), end(3)),
		"code beyond ndict":      rawStream(1, rawBatch(2, cat([]byte{1, 0, 0, 0, 1}, int7, []byte{0, 1})...), end(2)),
		"wide code beyond ndict": rawStream(1, rawBatch(1, cat([]byte{2, 0, 0, 0, 1}, int7, []byte{1, 0})...), end(1)),
		"trailing bytes":         rawStream(1, rawBatch(2, cat([]byte{1, 0, 0, 0, 1}, int7, []byte{0, 0, 0})...), end(2)),
		"trailing after plain":   rawStream(1, rawBatch(1, modePlain, 0, 0), end(1)),
	}
	for name, data := range cases {
		if err := readAll(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// The value decoders share the class.
	for _, b := range [][]byte{nil, {tagInt, 0}, {tagStr, 0, 0, 0, 9}, {99}} {
		if _, _, err := DecodeValue(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeValue(%v): err = %v, want ErrCorrupt", b, err)
		}
		if _, err := DecodeAll(b); b != nil && !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeAll(%v): err = %v, want ErrCorrupt", b, err)
		}
	}
}

// TestBatchReaderPassesIOErrors: a failing transport is not corruption —
// its own error comes through.
func TestBatchReaderPassesIOErrors(t *testing.T) {
	boom := errors.New("connection reset")
	br, err := NewBatchReader(io.MultiReader(bytes.NewReader(rawStream(1)), iotest.ErrReader(boom)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := br.Next(); !errors.Is(err, boom) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want the transport's error unclassified", err)
	}
}

// BenchmarkWriteBatch frames one 1 024-row batch of six 16-byte ciphertext
// columns (dictRows: four repeated, two unique).
func BenchmarkWriteBatch(b *testing.B) {
	rows := dictRows(1024)
	bw, err := NewBatchWriter(io.Discard, make([]string, 6))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bw.WriteBatch(rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBatch decodes the batch BenchmarkWriteBatch frames.
func BenchmarkReadBatch(b *testing.B) {
	wireBytes, _ := writeStream(b, make([]string, 6), dictRows(1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, err := NewBatchReader(bytes.NewReader(wireBytes))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := br.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBatchReaderReusesScratch: Next refills one cell slice and one row
// slice per reader across frames of dictionary-coded and plain columns. Each
// batch decodes right; a later, shorter batch reuses the first one's cells
// and leaves the rest of them NULL, not another row's; and a Bytes value
// copied out of the first batch still reads its bytes after the stream
// ends, its frame's payload never being reused.
func TestBatchReaderReusesScratch(t *testing.T) {
	rows := dictRows(40)
	batches := [][][]value.Value{rows[:24], rows[24:30], rows[30:]}
	cols := make([]string, len(rows[0]))
	wireBytes, starts := writeStream(t, cols, batches...)
	modes := map[bool]bool{} // by dictionary-coded
	for _, s := range starts {
		for _, m := range frameModes(t, wireBytes[s:], len(cols)) {
			modes[m != modePlain] = true
		}
	}
	if !modes[true] || !modes[false] {
		t.Fatalf("frames use dictionary-coded %v and plain %v columns, want both", modes[true], modes[false])
	}
	br, err := NewBatchReader(bytes.NewReader(wireBytes))
	if err != nil {
		t.Fatal(err)
	}
	var first [][]value.Value
	var kept value.Value
	for i, want := range batches {
		got, err := br.Next()
		if err != nil {
			t.Fatal(err)
		}
		checkRoundTrip(t, want, got)
		if i == 0 {
			first, kept = got, got[5][4]
			continue
		}
		if &got[0][0] != &first[0][0] {
			t.Errorf("batch %d: cells not refilled in place", i)
		}
		for k := len(got); k < len(first); k++ {
			for j, v := range first[k] {
				if !v.IsNull() {
					t.Fatalf("batch %d: the first batch's row %d cell %d reads %v, want NULL", i, k, j, v)
				}
			}
		}
	}
	if b, err := br.Next(); b != nil || err != nil {
		t.Fatalf("after the last batch: %d rows, %v", len(b), err)
	}
	if !sameCell(kept, rows[5][4]) {
		t.Fatalf("a Bytes value copied out of the first batch reads %v, want %v", kept, rows[5][4])
	}
}
