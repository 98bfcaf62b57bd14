package server

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/crypto/search"
	"repro/internal/enc"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/packing"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// fixture builds a small encrypted DB with one HOM group and SEARCH blobs.
func fixture(t *testing.T) (*Server, *enc.KeyStore) {
	t.Helper()
	cat := storage.NewCatalog()
	tbl, err := cat.Create(storage.Schema{
		Name: "t",
		Cols: []storage.Column{
			{Name: "k", Type: storage.TInt},
			{Name: "v", Type: storage.TInt},
			{Name: "s", Type: storage.TStr},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"red widget", "green widget", "red gadget", "blue thing"}
	for i := int64(0); i < 4; i++ {
		tbl.MustInsert([]value.Value{value.NewInt(i % 2), value.NewInt((i + 1) * 10), value.NewStr(words[i])})
	}
	ks, err := enc.NewKeyStore([]byte("server-test"), 256)
	if err != nil {
		t.Fatal(err)
	}
	design := &enc.Design{GroupedAddition: true, MultiRowPacking: false}
	design.Add(enc.ColumnItem("t", "k", enc.DET, value.Int))
	design.Add(enc.ColumnItem("t", "v", enc.HOM, value.Int))
	design.Add(enc.ColumnItem("t", "s", enc.SEARCH, value.Str))
	db, err := enc.EncryptDatabase(cat, design, ks)
	if err != nil {
		t.Fatal(err)
	}
	return New(db, netsim.Default()), ks
}

func TestPaillierSumUDF(t *testing.T) {
	srv, ks := fixture(t)
	group := srv.DB.Meta["t"].Groups[0]
	q := sqlparser.MustParse(
		`SELECT k_det, paillier_sum('` + group.Name + `', row_id) FROM t GROUP BY k_det`)
	resp, err := srv.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Rows) != 2 {
		t.Fatalf("groups = %d", len(resp.Result.Rows))
	}
	total := int64(0)
	for _, row := range resp.Result.Rows {
		sum, decErr := packing.DecodeSumResult(row[1].B, ks.Paillier().CiphertextSize())
		if decErr != nil {
			t.Fatal(decErr)
		}
		sums, _, decErr2 := packing.ClientSums(ks.Paillier(), group.Layout, sum, nil)
		if decErr2 != nil {
			t.Fatal(decErr2)
		}
		total += sums[0]
	}
	if total != 10+20+30+40 {
		t.Errorf("total = %d", total)
	}
	if resp.Result.Stats.UDFNanos <= 0 || resp.Result.Stats.ExtraBytes <= 0 || resp.WireBytes <= 0 {
		t.Errorf("work accounting missing: %+v, %d wire bytes", resp.Result.Stats, resp.WireBytes)
	}
}

func TestPaillierSumUnknownGroup(t *testing.T) {
	srv, _ := fixture(t)
	q := sqlparser.MustParse(`SELECT paillier_sum('nope', row_id) FROM t`)
	if _, err := srv.Execute(q, nil); err == nil || !strings.Contains(err.Error(), "no ciphertext group") {
		t.Errorf("expected group error, got %v", err)
	}
}

func TestGroupConcatUDF(t *testing.T) {
	srv, _ := fixture(t)
	q := sqlparser.MustParse(`SELECT k_det, group_concat(k_det) FROM t GROUP BY k_det`)
	resp, err := srv.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range resp.Result.Rows {
		vals, err := wire.DecodeAll(row[1].B)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 2 {
			t.Errorf("concat elements = %d, want 2 per group", len(vals))
		}
	}
}

func TestSearchMatchUDF(t *testing.T) {
	srv, ks := fixture(t)
	item := enc.ColumnItem("t", "s", enc.SEARCH, value.Str)
	token := ks.Search(&item).Trapdoor("widget")
	q := sqlparser.MustParse(`SELECT COUNT(*) FROM t WHERE search_match(s_srch, :1)`)
	resp, err := srv.Execute(q, map[string]value.Value{"1": value.NewBytes(token)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Rows[0][0].AsInt() != 2 {
		t.Errorf("widget matches = %v, want 2", resp.Result.Rows[0][0])
	}
	// Wrong-key token matches nothing.
	other := search.MustNew(make([]byte, 16)).Trapdoor("widget")
	resp, err = srv.Execute(q, map[string]value.Value{"1": value.NewBytes(other)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Rows[0][0].AsInt() != 0 {
		t.Error("cross-key token must not match")
	}
}

// TestAggStateMerge exercises the shard-partial Merge path of both server
// UDAF states, including type-mismatch and cross-group errors.
func TestAggStateMerge(t *testing.T) {
	srv, _ := fixture(t)
	st := &engine.Stats{}

	a := srv.newPaillierSum(st).(*paillierSumState)
	b := srv.newPaillierSum(st).(*paillierSumState)
	g := value.NewStr("g1")
	if err := a.Add([]value.Value{g, value.NewInt(0)}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]value.Value{g, value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]value.Value{g, value.NewNull()}); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if len(a.rowIDs) != 2 || a.rowIDs[0] != 0 || a.rowIDs[1] != 1 {
		t.Errorf("merged rowIDs = %v", a.rowIDs)
	}
	if !a.sawRows || a.group != "g1" {
		t.Errorf("merged state = %+v", a)
	}
	// Empty receiver adopts the partial's group.
	empty := srv.newPaillierSum(st).(*paillierSumState)
	if err := empty.Merge(a); err != nil || empty.group != "g1" || len(empty.rowIDs) != 2 {
		t.Errorf("empty merge: err=%v state=%+v", err, empty)
	}
	// Cross-group merges are a sharding bug and must fail loudly.
	other := srv.newPaillierSum(st).(*paillierSumState)
	if err := other.Add([]value.Value{value.NewStr("g2"), value.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(other); err == nil {
		t.Error("cross-group merge should fail")
	}
	if err := a.Merge(newGroupConcat(st)); err == nil {
		t.Error("cross-type merge should fail")
	}

	// GROUP_CONCAT merge preserves frame order: shard 1 then shard 2.
	c1 := newGroupConcat(st).(*groupConcatState)
	c2 := newGroupConcat(st).(*groupConcatState)
	for i, s := range []*groupConcatState{c1, c1, c2} {
		if err := s.Add([]value.Value{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Merge(c2); err != nil {
		t.Fatal(err)
	}
	res, err := c1.Result()
	if err != nil {
		t.Fatal(err)
	}
	vals, err := wire.DecodeAll(res.B)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0].AsInt() != 0 || vals[1].AsInt() != 1 || vals[2].AsInt() != 2 {
		t.Errorf("merged concat = %v", vals)
	}
	if err := c1.Merge(a); err == nil {
		t.Error("cross-type concat merge should fail")
	}
}

// TestServerParallelMatchesSequential runs the UDAF queries at several
// GOMAXPROCS values — group finalization and each Paillier product split
// across that many workers — and requires identical wire results.
func TestServerParallelMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, _ := fixture(t)
	group := srv.DB.Meta["t"].Groups[0]
	queries := []string{
		`SELECT k_det, paillier_sum('` + group.Name + `', row_id) FROM t GROUP BY k_det`,
		`SELECT k_det, group_concat(s_srch) FROM t GROUP BY k_det`,
	}
	for _, sql := range queries {
		q := sqlparser.MustParse(sql)
		runtime.GOMAXPROCS(1)
		want, err := srv.Execute(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 8} {
			runtime.GOMAXPROCS(p)
			got, err := srv.Execute(q, nil)
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			if len(got.Result.Rows) != len(want.Result.Rows) {
				t.Fatalf("p=%d: %d rows, want %d", p, len(got.Result.Rows), len(want.Result.Rows))
			}
			for i := range want.Result.Rows {
				for j := range want.Result.Rows[i] {
					if want.Result.Rows[i][j].String() != got.Result.Rows[i][j].String() {
						t.Errorf("p=%d: row %d col %d diverges", p, i, j)
					}
				}
			}
		}
	}
}

func TestEmptyConditionalSumSawRows(t *testing.T) {
	srv, ks := fixture(t)
	group := srv.DB.Meta["t"].Groups[0]
	// Condition never matches: rows seen, zero matched.
	q := sqlparser.MustParse(
		`SELECT paillier_sum('` + group.Name + `', CASE WHEN k_det = 12345 THEN row_id ELSE NULL END) FROM t`)
	resp, err := srv.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := packing.DecodeSumResult(resp.Result.Rows[0][0].B, ks.Paillier().CiphertextSize())
	if err != nil {
		t.Fatal(err)
	}
	if !sum.SawRows || sum.Product != nil || len(sum.Partials) != 0 {
		t.Errorf("conditional no-match should be empty-but-saw-rows: %+v", sum)
	}
}
