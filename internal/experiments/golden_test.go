package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/enc"
	"repro/internal/tpch"
)

// The planner's golden net: for the three paper configurations, the design
// the designer chose and, for each supported TPC-H query, the plan the client
// executed and the items that plan reports as used. testdata/plans.golden was
// rendered before internal/planner was restructured; a planner change that
// means to keep behaviour must keep it byte for byte. It changes by design
// when a plan gains or loses a key filter (a "key filter" line under a
// MONOMI RemoteSQL): the pass that attaches them runs after the plan is
// chosen and alters nothing else, so every other line — the greedy
// configurations' sections and every "used" section — must still match.

func sortedItemKeys(items []enc.Item) string {
	keys := make([]string, len(items))
	for i := range items {
		keys[i] = items[i].Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n") + "\n"
}

func renderGolden(t *testing.T) string {
	var b strings.Builder
	for _, cfg := range []Config{MonomiConfig(testSF), ExecutionGreedyConfig(testSF), CryptDBClientConfig(testSF)} {
		cfg.Seed = testSeed
		cfg.PaillierBits = 256
		cfg.Parallelism = 1
		bench, err := Setup(cfg)
		if err != nil {
			t.Fatalf("setup %s: %v", cfg.Name, err)
		}
		fmt.Fprintf(&b, "==== %s design\n%s", cfg.Name, sortedItemKeys(bench.Design.Design.Items))
		for _, qn := range tpch.SupportedQueries() {
			res, err := bench.RunEncrypted(qn)
			if err != nil {
				t.Fatalf("%s Q%d: %v", cfg.Name, qn, err)
			}
			fmt.Fprintf(&b, "==== %s Q%02d plan\n%s", cfg.Name, qn, res.Plan.Describe())
			fmt.Fprintf(&b, "==== %s Q%02d used\n%s", cfg.Name, qn, sortedItemKeys(res.Plan.UsedItems))
		}
	}
	return b.String()
}

func TestPlansGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("three designer runs and 57 encrypted TPC-H executions")
	}
	path := filepath.Join("testdata", "plans.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := renderGolden(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "==== ") {
			section = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d (%s):\n got  %s\n want %s", path, i+1, section, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}
