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
