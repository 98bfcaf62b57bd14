package deploy

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/designer"
	"repro/internal/enc"
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
		Designer: opts, Prefilter: true, Indexes: true, Parallelism: 1,
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
