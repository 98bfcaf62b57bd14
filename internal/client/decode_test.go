package client

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/crypto/ope"
	"repro/internal/enc"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// decodeRowCounts brackets the inline/parallel switch of decoder.decode, plus
// the empty result.
var decodeRowCounts = []int{0, parallelDecodeRows - 1, parallelDecodeRows, parallelDecodeRows + 1}

// eventsFixture is a client over one table wide enough to cross the parallel
// decode threshold, with a column per decode flavor: e_id DET+OPE integers,
// e_name DET strings with NULLs, e_val RND only (with NULLs), e_day OPE only,
// e_grp / e_amt DET without HOM, so grouped sums ship as GROUP_CONCAT.
func eventsFixture(t testing.TB) *fixture {
	t.Helper()
	cat := storage.NewCatalog()
	ev, err := cat.Create(storage.Schema{Name: "events", Cols: []storage.Column{
		{Name: "e_id", Type: storage.TInt}, {Name: "e_name", Type: storage.TStr},
		{Name: "e_val", Type: storage.TInt}, {Name: "e_day", Type: storage.TDate},
		{Name: "e_grp", Type: storage.TInt}, {Name: "e_amt", Type: storage.TInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < parallelDecodeRows+50; i++ {
		name, val := value.NewStr(fmt.Sprintf("name-%d", i%37)), value.NewInt(int64(i%91))
		if i%11 == 0 {
			name = value.NewNull()
		}
		if i%7 == 0 {
			val = value.NewNull()
		}
		ev.MustInsert([]value.Value{
			value.NewInt(int64(i)), name, val, value.NewDate(int64(9000 + i%400)),
			value.NewInt(int64(i % 5)), value.NewInt(int64(i % 13)),
		})
	}
	d := &enc.Design{}
	d.Add(enc.ColumnItem("events", "e_id", enc.DET, value.Int))
	d.Add(enc.ColumnItem("events", "e_id", enc.OPE, value.Int))
	d.Add(enc.ColumnItem("events", "e_name", enc.DET, value.Str))
	d.Add(enc.ColumnItem("events", "e_val", enc.RND, value.Int))
	d.Add(enc.ColumnItem("events", "e_day", enc.OPE, value.Date))
	d.Add(enc.ColumnItem("events", "e_grp", enc.DET, value.Int))
	d.Add(enc.ColumnItem("events", "e_amt", enc.DET, value.Int))
	ks, err := enc.NewKeyStore([]byte("test-master-key"), 256)
	if err != nil {
		t.Fatal(err)
	}
	db, err := enc.EncryptDatabase(cat, d, ks)
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Default()
	ctx := planner.NewContext(cat, d, ks, planner.DefaultCostModel(cfg))
	return &fixture{cat: cat, client: New(ks, server.New(db, cfg), ctx, cfg), plain: engine.New(cat)}
}

// TestWiresDecodeIdentically pins the one decoder behind both hand-offs, as
// two clients over one server: at every GOMAXPROCS, for results below, at
// and above the inline threshold, with NULLs, DET-string, RND and OPE columns
// and conditional-sum concats whose elements are NULL, the remote-built
// client — which decodes 1 024-row frames, two of them for the widest
// result — returns the in-process client's rows — same values, same
// kinds, same order — and both match the plaintext engine.
func TestWiresDecodeIdentically(t *testing.T) {
	f := eventsFixture(t)
	r := f.remote(nil)
	var queries []string
	for _, n := range decodeRowCounts {
		queries = append(queries, fmt.Sprintf(`SELECT e_id, e_name, e_val, e_day FROM events WHERE e_id < %d`, n))
	}
	queries = append(queries,
		`SELECT e_grp, SUM(CASE WHEN e_name = 'name-3' THEN e_amt ELSE 0 END), SUM(e_amt), COUNT(*) FROM events GROUP BY e_grp`,
		`SELECT e_id, SUM(CASE WHEN e_name = 'name-3' THEN e_amt ELSE 0 END) FROM events GROUP BY e_id`,
		`SELECT SUM(e_amt) FROM events WHERE e_id < 0`)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sql := range queries {
		var want [][]value.Value
		for _, p := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(p)
			for _, via := range []*fixture{f, r} {
				got := via.checkQuery(t, sql, nil).Rows
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("p=%d remote=%v: rows differ from p=1 in-process\n%s", p, via == r, sql)
				}
			}
		}
	}
}

// TestDecodeUnit drives decoder.decode over a hand-built part covering every
// output mode that needs no server, and checks slot order and decrypt counts.
func TestDecodeUnit(t *testing.T) {
	ks, err := enc.NewKeyStore([]byte("k"), 256)
	if err != nil {
		t.Fatal(err)
	}
	detInt := enc.ColumnItem("t", "a", enc.DET, value.Int)
	detStr := enc.ColumnItem("t", "s", enc.DET, value.Str)
	ope := enc.ColumnItem("t", "d", enc.OPE, value.Date)
	rnd := enc.ColumnItem("t", "r", enc.RND, value.Str)
	part := &planner.RemotePart{Name: "r0", Outputs: []planner.Output{
		{Name: "n", Mode: planner.OutPlain, Kind: value.Int},
		{Name: "a", Mode: planner.OutDecrypt, Item: &detInt, Kind: value.Int},
		{Name: "s", Mode: planner.OutDecrypt, Item: &detStr, Kind: value.Str},
		{Name: "d", Mode: planner.OutDecrypt, Item: &ope, Kind: value.Date},
		{Name: "r", Mode: planner.OutDecrypt, Item: &rnd, Kind: value.Str},
		{Name: "sum", Mode: planner.OutConcatAgg, Item: &detInt, Agg: ast.AggSum, Kind: value.Int},
		{Name: "csum", Mode: planner.OutConcatAgg, Item: &detInt, Agg: ast.AggSum, NullAsZero: true, Kind: value.Int},
		{Name: "min", Mode: planner.OutConcatAgg, Item: &detInt, Agg: ast.AggMin, Kind: value.Int},
		{Name: "max", Mode: planner.OutConcatAgg, Item: &detInt, Agg: ast.AggMax, Kind: value.Int},
		{Name: "cnt", Mode: planner.OutConcatAgg, Item: &detInt, Agg: ast.AggCount, Kind: value.Int},
	}}
	mustEnc := func(it *enc.Item, v value.Value) value.Value {
		cv, err := ks.EncryptValue(it, v)
		if err != nil {
			t.Fatal(err)
		}
		return cv
	}
	plainRow := func(i int) []value.Value {
		// The GROUP() columns fold one blob: sum, conditional sum, min, max
		// and count.
		x := int64(i % 4)
		row := []value.Value{
			value.NewInt(int64(i)), value.NewInt(int64(i % 17)), value.NewStr(fmt.Sprintf("s%d", i%5)),
			value.NewDate(int64(8000 + i%300)), value.NewStr(fmt.Sprintf("r%d", i)),
			value.NewInt(3 * x), value.NewInt(3 * x), value.NewInt(x), value.NewInt(2 * x), value.NewInt(2),
		}
		switch i % 9 {
		case 1:
			row[1], row[2] = value.NewNull(), value.NewNull()
		case 2:
			// NULL blob: no rows reached the group.
			for j := 5; j < len(row); j++ {
				row[j] = value.NewNull()
			}
		case 3:
			// Every element NULL: SUM, MIN and MAX are NULL, as over an
			// all-NULL group in plaintext; a conditional SUM is 0, its NULLs
			// being rejected rows; COUNT is 0.
			row[5], row[6], row[7], row[8], row[9] = value.NewNull(), value.NewInt(0), value.NewNull(), value.NewNull(), value.NewInt(0)
		}
		return row
	}
	encRow := func(i int) []value.Value {
		p := plainRow(i)
		var blob []byte
		switch i % 9 {
		case 2:
		case 3:
			blob, _ = wire.AppendValue(blob, value.NewNull())
			blob, _ = wire.AppendValue(blob, value.NewNull())
		default:
			// Three elements, one NULL, summing to 3·(i%4).
			for _, x := range []value.Value{value.NewInt(int64(i % 4)), value.NewNull(), value.NewInt(int64(2 * (i % 4)))} {
				blob, _ = wire.AppendValue(blob, mustEnc(&detInt, x))
			}
		}
		concat := value.NewNull()
		if blob != nil {
			concat = value.NewBytes(blob)
		}
		return []value.Value{p[0], mustEnc(&detInt, p[1]), mustEnc(&detStr, p[2]), mustEnc(&ope, p[3]), mustEnc(&rnd, p[4]), concat, concat, concat, concat, concat}
	}
	most := decodeRowCounts[len(decodeRowCounts)-1]
	encRows, plainRows := make([][]value.Value, most), make([][]value.Value, most)
	for i := range encRows {
		encRows[i], plainRows[i] = encRow(i), plainRow(i)
	}
	for _, n := range decodeRowCounts {
		for _, p := range []int{1, 2, 4} {
			c := &Client{Keys: ks}
			dec, err := c.newDecoder(part)
			if err != nil {
				t.Fatal(err)
			}
			got, decrypts, err := dec.decode(encRows[:n], p)
			if err != nil {
				t.Fatalf("n=%d p=%d: %v", n, p, err)
			}
			if len(got) != n {
				t.Fatalf("n=%d p=%d: %d rows", n, p, len(got))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], plainRows[i]) {
					t.Fatalf("n=%d p=%d row %d:\n got  %v\n want %v", n, p, i, got[i], plainRows[i])
				}
			}
			// RND ciphertexts never repeat, so every row costs at least one
			// decryption; the memos absorb most of the rest.
			if decrypts < int64(n) || decrypts > int64(n)*4 {
				t.Errorf("n=%d p=%d: %d decrypts", n, p, decrypts)
			}
		}
	}
}

// TestDecryptCacheKeyedByPlainKind: two items of one join group share a key
// label, hence ciphertexts, but not necessarily a plaintext kind. A hit for
// one must not hand the other a value of the wrong kind (the client-wide
// string-keyed cache did; each column's memo cannot).
func TestDecryptCacheKeyedByPlainKind(t *testing.T) {
	ks, err := enc.NewKeyStore([]byte("k"), 256)
	if err != nil {
		t.Fatal(err)
	}
	asInt := enc.ColumnItem("a", "k", enc.DET, value.Int)
	asDate := enc.ColumnItem("b", "k", enc.DET, value.Date)
	asInt.JoinGroup, asDate.JoinGroup = "g", "g"
	part := &planner.RemotePart{Name: "r0", Outputs: []planner.Output{
		{Name: "i", Mode: planner.OutDecrypt, Item: &asInt, Kind: value.Int},
		{Name: "d", Mode: planner.OutDecrypt, Item: &asDate, Kind: value.Date},
	}}
	cv, err := ks.EncryptValue(&asInt, value.NewInt(9131))
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Keys: ks}
	dec, err := c.newDecoder(part)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := dec.decode([][]value.Value{{cv, cv}, {cv, cv}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if !reflect.DeepEqual(row, []value.Value{value.NewInt(9131), value.NewDate(9131)}) {
			t.Fatalf("decoded %#v, want Int then Date", row)
		}
	}
}

// TestMalformedConcatCell: a GROUP_CONCAT cell that is not a decodable blob
// fails the decode with ErrMalformedResult naming the output, whichever
// worker meets it — a blob whose second frame is truncated too, though the
// fold has decrypted its first element by then.
func TestMalformedConcatCell(t *testing.T) {
	ks, err := enc.NewKeyStore([]byte("k"), 256)
	if err != nil {
		t.Fatal(err)
	}
	it := enc.ColumnItem("t", "a", enc.DET, value.Int)
	part := &planner.RemotePart{Name: "r0", Outputs: []planner.Output{
		{Name: "total", Mode: planner.OutConcatAgg, Item: &it, Agg: ast.AggSum, Kind: value.Int},
	}}
	var blob []byte
	for _, x := range []int64{3, 4} {
		cv, err := ks.EncryptValue(&it, value.NewInt(x))
		if err != nil {
			t.Fatal(err)
		}
		if blob, err = wire.AppendValue(blob, cv); err != nil {
			t.Fatal(err)
		}
	}
	for name, bad := range map[string]value.Value{
		"int cell":        value.NewInt(7),
		"garbage blob":    value.NewBytes([]byte{0xff, 0xff, 0xff}),
		"truncated frame": value.NewBytes(blob[:len(blob)-1]),
	} {
		for _, p := range []int{1, 4} {
			rows := make([][]value.Value, 2*parallelDecodeRows)
			for i := range rows {
				rows[i] = []value.Value{value.NewNull()}
			}
			rows[len(rows)-1] = []value.Value{bad} // the last worker's range
			c := &Client{Keys: ks}
			dec, err := c.newDecoder(part)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = dec.decode(rows, p)
			if !errors.Is(err, ErrMalformedResult) {
				t.Fatalf("%s p=%d: %v, want ErrMalformedResult", name, p, err)
			}
			if !strings.Contains(err.Error(), "output total") {
				t.Errorf("%s p=%d: error %q does not name the output", name, p, err)
			}
		}
	}
}

// TestDecoderRejectsUnknownHomGroup: a HOM output is resolved against the
// client's table metadata when the decoder is built, so a part naming a table
// or a packed expression the metadata lacks fails before any row is decoded —
// even if every cell would have been NULL.
func TestDecoderRejectsUnknownHomGroup(t *testing.T) {
	f := eventsFixture(t) // no HOM item in its design
	for _, tc := range []struct{ table, want string }{
		{"nowhere", "no encrypted table metadata for nowhere"},
		{"events", "no ciphertext group packs e_amt on events"},
	} {
		part := &planner.RemotePart{Name: "r0", Outputs: []planner.Output{
			{Name: "total", Mode: planner.OutHomSum, HomTable: tc.table, HomExpr: "e_amt", Kind: value.Int},
		}}
		_, err := f.client.newDecoder(part)
		if err == nil || !strings.Contains(err.Error(), "output total: "+tc.want) {
			t.Errorf("%s: newDecoder error %v, want %q", tc.table, err, tc.want)
		}
	}
}

// TestNonCiphertextCell: a cell to decrypt whose kind is not the column's
// ciphertext kind — an integer for DET over integers, bytes otherwise — is no
// ciphertext; it fails with ErrMalformedResult instead of being read as one.
func TestNonCiphertextCell(t *testing.T) {
	ks, err := enc.NewKeyStore([]byte("k"), 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		scheme enc.Scheme
		kind   value.Kind
		cell   value.Value
	}{
		{enc.DET, value.Int, value.NewStr("x")},
		{enc.DET, value.Int, value.NewBytes([]byte{1, 2, 3, 4, 5, 6, 7, 8})},
		{enc.DET, value.Str, value.NewInt(7)},
		{enc.OPE, value.Int, value.NewInt(7)},
		{enc.RND, value.Int, value.NewFloat(1.5)},
	} {
		it := enc.ColumnItem("t", "a", tc.scheme, tc.kind)
		part := &planner.RemotePart{Name: "r0", Outputs: []planner.Output{
			{Name: "a", Mode: planner.OutDecrypt, Item: &it, Kind: tc.kind},
		}}
		dec, err := (&Client{Keys: ks}).newDecoder(part)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = dec.decode([][]value.Value{{tc.cell}}, 1)
		if !errors.Is(err, ErrMalformedResult) || !strings.Contains(err.Error(), "output a") {
			t.Errorf("%v %v column, %v cell: error %v, want ErrMalformedResult naming output a", tc.scheme, tc.kind, tc.cell.K, err)
		}
	}
}

// TestNonOPECiphertextCell: sixteen bytes that are no OPE ciphertext under the
// column's key — a flipped bit, another column's ciphertext — used to decrypt
// to some plaintext. They fail the decode with ope.ErrNotCiphertext naming
// the output, as a plain cell or inside a GROUP_CONCAT blob, whichever worker
// meets them; no row comes back.
func TestNonOPECiphertextCell(t *testing.T) {
	ks, err := enc.NewKeyStore([]byte("k"), 256)
	if err != nil {
		t.Fatal(err)
	}
	it := enc.ColumnItem("t", "a", enc.OPE, value.Int)
	other := enc.ColumnItem("t", "b", enc.OPE, value.Int)
	good, err := ks.EncryptValue(&it, value.NewInt(9131))
	if err != nil {
		t.Fatal(err)
	}
	flipped := value.NewBytes(append([]byte(nil), good.B...))
	flipped.B[15] ^= 1
	foreign, err := ks.EncryptValue(&other, value.NewInt(9131))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]value.Value{"flipped bit": flipped, "another column's ciphertext": foreign} {
		for _, mode := range []planner.OutputMode{planner.OutDecrypt, planner.OutConcatAgg} {
			part := &planner.RemotePart{Name: "r0", Outputs: []planner.Output{
				{Name: "a", Mode: mode, Item: &it, Agg: ast.AggMax, Kind: value.Int},
			}}
			cell := func(v value.Value) []value.Value {
				if mode == planner.OutConcatAgg {
					blob, _ := wire.AppendValue(nil, good)
					blob, _ = wire.AppendValue(blob, v)
					return []value.Value{value.NewBytes(blob)}
				}
				return []value.Value{v}
			}
			for _, p := range []int{1, 4} {
				rows := make([][]value.Value, 2*parallelDecodeRows)
				for i := range rows {
					rows[i] = cell(good)
				}
				rows[len(rows)-1] = cell(bad) // the last worker's range
				c := &Client{Keys: ks}
				dec, err := c.newDecoder(part)
				if err != nil {
					t.Fatal(err)
				}
				_, _, err = dec.decode(rows, p)
				if !errors.Is(err, ope.ErrNotCiphertext) || !strings.Contains(err.Error(), "output a") {
					t.Fatalf("%s, mode %v, p=%d: error %v, want ope.ErrNotCiphertext naming output a", name, mode, p, err)
				}
			}
		}
	}
}

// q1Shape builds n encrypted rows of Q1's shipped-rows result — six DET
// columns with lineitem's cardinalities (quantity 50, extended price nearly
// unique, discount 11, tax 9, two flags) — and the part that decodes them.
// With ints set, the two one-byte flag columns are integers as well.
func q1Shape(b *testing.B, ks *enc.KeyStore, n int, ints bool) (*planner.RemotePart, [][]value.Value) {
	b.Helper()
	card := []int64{50, 1 << 40, 11, 9, 3, 2}
	items := make([]enc.Item, len(card))
	part := &planner.RemotePart{Name: "r0"}
	for j := range card {
		kind := value.Int
		if j >= 4 && !ints {
			kind = value.Str
		}
		items[j] = enc.ColumnItem("lineitem", fmt.Sprintf("c%d", j), enc.DET, kind)
		part.Outputs = append(part.Outputs, planner.Output{
			Name: fmt.Sprintf("c%d", j), Mode: planner.OutDecrypt, Item: &items[j], Kind: kind,
		})
	}
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = make([]value.Value, len(card))
		for j := range card {
			x := (int64(i)*2654435761 + int64(j)) % card[j]
			v := value.NewInt(x)
			if items[j].PlainKind == value.Str {
				v = value.NewStr(string(rune('A' + x)))
			}
			cv, err := ks.EncryptValue(&items[j], v)
			if err != nil {
				b.Fatal(err)
			}
			rows[i][j] = cv
		}
	}
	return part, rows
}

// BenchmarkDecodeRemote measures the client's result decoder on Q1's shape:
// 60 000 rows × 6 DET columns (as shipped, and all-integer), and a 100-row
// result that decodes inline. ns/cell and allocs/cell are per decoded cell;
// every iteration decodes on a fresh clone, as every query does.
func BenchmarkDecodeRemote(b *testing.B) {
	ks, err := enc.NewKeyStore([]byte("bench-master-key"), 256)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		rows int
		ints bool
	}{{"q1-60k", 60000, false}, {"int-60k", 60000, true}, {"int-100", 100, true}} {
		b.Run(tc.name, func(b *testing.B) {
			part, rows := q1Shape(b, ks, tc.rows, tc.ints)
			c := &Client{Keys: ks}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec, err := c.newDecoder(part)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := dec.clone().decode(rows, runtime.GOMAXPROCS(0)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cells := float64(b.N * tc.rows * len(part.Outputs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cells, "ns/cell")
			b.ReportMetric(float64(testing.AllocsPerRun(1, func() {
				dec, _ := c.newDecoder(part)
				dec.clone().decode(rows, runtime.GOMAXPROCS(0)) //nolint:errcheck
			}))/float64(tc.rows*len(part.Outputs)), "allocs/cell")
		})
	}
}
