package deploy

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/designer"
	"repro/internal/enc"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/value"
)

func itemKeys(d *enc.Design) string {
	keys := make([]string, len(d.Items))
	for i := range d.Items {
		keys[i] = d.Items[i].Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestDesignMatchesBuild pins the two halves of the assembler to each other
// and to themselves: the design-only path and two independent full builds of
// one spec must plan under the same cost model (Paillier ciphertext width
// included — 128 bytes at 512 bits, not DefaultCostModel's 256) and the same
// prefilter/index settings, and must choose the same design. The second is
// the contract monomi-server and ConnectRemote's trusted side rely on when
// each derives the design on its own host.
func TestDesignMatchesBuild(t *testing.T) {
	workload := map[string]string{
		"Q01": tpch.Queries[1],
		"Q06": tpch.Queries[6],
		"Q18": tpch.Queries[18],
	}
	opts := designer.MonomiOptions()
	opts.SpaceBudget = 2
	spec := Spec{
		MasterKey: []byte("deploy-test"), PaillierBits: 512,
		Designer: opts, Prefilter: true, Indexes: true,
	}
	cat, err := tpch.Generate(0.0005, 3)
	if err != nil {
		t.Fatal(err)
	}
	designed, err := Design(cat, workload, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := designed.Context.Cost.HomCipherBytes, designed.Context.Keys.Paillier().CiphertextSize(); got != want || want != 128 {
		t.Fatalf("design-only HomCipherBytes = %d, key store says %d, want 128", got, want)
	}
	for run := 0; run < 2; run++ {
		cat, err := tpch.Generate(0.0005, 3)
		if err != nil {
			t.Fatal(err)
		}
		built, err := Build(cat, workload, spec)
		if err != nil {
			t.Fatal(err)
		}
		dctx, bctx := designed.Context, built.Client.Ctx
		if *dctx.Cost != *bctx.Cost {
			t.Errorf("build %d: cost models differ: Design %+v, Build %+v", run, *dctx.Cost, *bctx.Cost)
		}
		if dctx.EnablePrefilter != bctx.EnablePrefilter || dctx.Indexes != bctx.Indexes {
			t.Errorf("build %d: planner settings differ: prefilter %v/%v, indexes %v/%v", run,
				dctx.EnablePrefilter, bctx.EnablePrefilter, dctx.Indexes, bctx.Indexes)
		}
		if got, want := itemKeys(built.Design.Design), itemKeys(designed.Design); got != want {
			t.Errorf("build %d chose a different design:\n%s\nvs\n%s", run, got, want)
		}
	}
}

// TestBuildIndexesOnlyWhenSpecified: Build declares secondary indexes and
// builds none. With Spec.Indexes false it declares none on either catalog,
// and running the workload makes no index lookup on the server's engine or
// the plaintext one: declaring is the only index switch. With it true it
// declares one per DET and OPE item on the encrypted catalog, and mirrors
// them onto the plaintext one; running the workload then builds the ones its
// queries read, which are some of the declared ones and not all. Both
// settings return the same rows, encrypted and plaintext.
func TestBuildIndexesOnlyWhenSpecified(t *testing.T) {
	workload := map[string]string{"Q06": tpch.Queries[6], "Q12": tpch.Queries[12]}
	rows := map[bool]map[string]string{} // by Spec.Indexes, by query
	for _, indexes := range []bool{false, true} {
		cat, err := tpch.Generate(0.0005, 3)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := Build(cat, workload, Spec{
			MasterKey: []byte("deploy-test"), PaillierBits: 256,
			Designer: designer.MonomiOptions(), Indexes: indexes,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := range dep.Design.Design.Items {
			if _, ok := enc.IndexKindOf(&dep.Design.Design.Items[i]); ok {
				want++
			}
		}
		if want == 0 {
			t.Fatal("the design has no DET or OPE item to index")
		}
		encDecl, encBuilt := dep.DB.Cat.IndexCounts()
		plainDecl, plainBuilt := dep.Plain.IndexCounts()
		if encBuilt != 0 || plainBuilt != 0 {
			t.Errorf("Indexes %v: %d encrypted and %d plaintext indexes built by Build, want none", indexes, encBuilt, plainBuilt)
		}
		if !indexes && (encDecl != 0 || plainDecl != 0) {
			t.Errorf("Indexes false: %d encrypted and %d plaintext indexes declared, want none", encDecl, plainDecl)
		}
		if indexes && (encDecl != want || plainDecl == 0) {
			t.Errorf("Indexes true: %d encrypted indexes declared for %d DET/OPE items, %d plaintext", encDecl, want, plainDecl)
		}
		rows[indexes] = map[string]string{}
		for _, label := range []string{"Q06", "Q12"} {
			res, err := dep.Client.Query(workload[label], nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			plain, err := dep.ExecutePlain(workload[label])
			if err != nil {
				t.Fatalf("%s plaintext: %v", label, err)
			}
			rows[indexes][label] = fmt.Sprint(res.Rows, plain.Rows)
		}
		srvLookups, _ := dep.Client.Srv.Engine.IndexStats()
		plainLookups, _ := dep.Engine.IndexStats()
		if !indexes {
			if srvLookups != 0 || plainLookups != 0 {
				t.Errorf("Indexes false: Q6 and Q12 made %d index lookups on the server and %d on the plaintext engine, want none", srvLookups, plainLookups)
			}
			continue
		}
		for side, cat := range map[string]*storage.Catalog{"encrypted": dep.DB.Cat, "plaintext": dep.Plain} {
			if declared, built := cat.IndexCounts(); built == 0 || built >= declared {
				t.Errorf("%s catalog after Q6 and Q12: %d of %d declared indexes built, want some but not all", side, built, declared)
			}
		}
	}
	for label, want := range rows[true] {
		if got := rows[false][label]; got != want {
			t.Errorf("%s: rows without indexes\n%s\ndiffer from those with them\n%s", label, got, want)
		}
	}
}

// TestClusteredHomSums: on disk, Build seals lineitem in its cluster
// column's order before it packs the HOM groups, so the row_id column, both
// segments and the packs share row ids. Under Execution-Greedy options the
// workload's SUMs are paillier_sum over those row ids, and they must equal
// the plaintext twin's, which stays in load order.
func TestClusteredHomSums(t *testing.T) {
	workload := map[string]string{
		"Q01": tpch.Queries[1],
		"Q06": tpch.Queries[6],
		"Q14": tpch.Queries[14],
	}
	cat, err := tpch.Generate(0.0005, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		MasterKey: []byte("deploy-test"), PaillierBits: 512,
		Designer:        designer.Options{AllItems: true, GroupedAddition: true, MultiRowPacking: true},
		GreedyExecution: true,
		Backend:         storage.BackendConfig{Kind: storage.BackendDisk, Dir: t.TempDir(), PageBytes: 1024, CacheBytes: 4096},
	}
	dep, err := Build(cat, workload, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.DB.Cat.Close()
	layout, err := Layout(dep.Design.Context, workload, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := layout["lineitem"].Cluster; got != "l_shipdate_ope" {
		t.Fatalf("lineitem clusters on %q, want l_shipdate_ope", got)
	}
	if len(dep.DB.Meta["lineitem"].Groups) == 0 {
		t.Fatal("the design packs no HOM group on lineitem")
	}
	for _, label := range []string{"Q01", "Q06", "Q14"} {
		res, err := dep.Client.Query(workload[label], nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !strings.Contains(res.Plan.Describe(), "paillier_sum") {
			t.Fatalf("%s: plan sums no HOM group:\n%s", label, res.Plan.Describe())
		}
		plain, err := dep.ExecutePlain(workload[label])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(res.Rows), fmt.Sprint(plain.Rows); got != want {
			t.Errorf("%s: encrypted rows\n%s\ndiffer from plaintext\n%s", label, got, want)
		}
	}
}

// TestLayoutClusterChoice: the cluster column is the zoned column the most
// scans range over — a scan with several range conjuncts on one column
// counts once — and a tie goes to the lower schema position.
func TestLayoutClusterChoice(t *testing.T) {
	cat := storage.NewCatalog()
	tb, err := cat.Create(storage.Schema{Name: "t", Cols: []storage.Column{
		{Name: "k", Type: storage.TInt}, {Name: "a", Type: storage.TInt}, {Name: "b", Type: storage.TInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		tb.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 17)), value.NewInt(int64(i % 23))})
	}
	design := map[string]string{
		"a": "SELECT k FROM t WHERE a < 5",
		"b": "SELECT k FROM t WHERE b < 5",
	}
	dres, err := Design(cat, design, Spec{MasterKey: []byte("deploy-test"), PaillierBits: 256, Designer: designer.MonomiOptions()})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workload map[string]string
		want     string
	}{
		{design, "a_ope"}, // one scan each: the lower schema position
		{map[string]string{
			"b1": "SELECT k FROM t WHERE b < 5",
			"b2": "SELECT k FROM t WHERE b > 9 AND a < 3",
		}, "b_ope"},
		{map[string]string{
			"b": "SELECT k FROM t WHERE b > 2 AND b < 9",
			"a": "SELECT k FROM t WHERE a > 4",
		}, "a_ope"},
		{map[string]string{"none": "SELECT k FROM t WHERE k = 3"}, ""},
	} {
		l, err := Layout(dres.Context, c.workload, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := l["t"].Cluster; got != c.want {
			t.Errorf("%v: cluster %q (zoned %v), want %q", c.workload, got, l["t"].Zoned, c.want)
		}
	}
}
