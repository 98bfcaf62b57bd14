package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"
)

const manifestPath = "../BENCHMARK.json"

var smokeCfg = config{seed: 1, seconds: 0, scale: scales["smoke"]}

func smokeRun(t *testing.T, name string, trace bool, cfg config) *record {
	t.Helper()
	rec, err := runWorkload(context.Background(), name, trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, rec.Correct, rec.Attempted, rec.Failed)
	}
	for n, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %v", name, n, m.Value)
		}
	}
	return rec
}

// The Go tables and BENCHMARK.json must declare the same benchmark.
func TestManifestMatchesDeclarations(t *testing.T) {
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", m.Paths)
	}
	if !reflect.DeepEqual(m.Command, []string{"go", "run", "./bench"}) || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("command = %v, run_seconds = %d", m.Command, m.RunSeconds)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end differs:\n manifest %v\n code     %v", m.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayerMetrics()) {
		t.Errorf("per_layer differs from perLayerMetrics()")
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads = %v, code has %v", names, workloadNames())
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), m.EndToEnd...), m.PerLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("bad or repeated metric name %q", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract", len(m.PerLayer), len(m.EndToEnd))
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g", d.Name, d.Bound)
		}
	}
}

// Every workload, untraced and traced, emits exactly the declared names
// (runWorkload enforces that), finite values, no failed op; the same seed
// feeds the program the same inputs; the files written parse; comparing a
// file with itself is all ok.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	goroutines := runtime.NumGoroutine()
	var recs []*record
	for _, name := range workloadNames() {
		untraced := smokeRun(t, name, false, smokeCfg)
		recs = append(recs, untraced)
		if name == "tpch-subq" || name == "hotpath" {
			checkSeedDeterminesInputs(t, name, untraced)
		}
		cfg := smokeCfg
		cfg.spans = filepath.Join(dir, name+".spans.json")
		recs = append(recs, smokeRun(t, name, true, cfg))

		b, err := os.ReadFile(cfg.spans)
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(b, &spans); err != nil {
			t.Fatalf("%s: span file: %v", name, err)
		}
		if len(spans) == 0 {
			t.Fatalf("%s: no spans", name)
		}
		if err := checkSpans(spans); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Servers, sessions, clients and samplers are gone once a workload returns.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines before the workloads, %d after", goroutines, n)
	}
	if left, _ := filepath.Glob(".bench_tmp-*"); len(left) > 0 {
		t.Errorf("segment directories left behind: %v", left)
	}

	out := filepath.Join(dir, "runs.json")
	if err := appendRecords(out, recs[:4]); err != nil {
		t.Fatal(err)
	}
	if err := appendRecords(out, recs[4:]); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	cmpOut := filepath.Join(dir, "cmp.json")
	ok, err := compareFiles(&table, manifestPath, out, out, cmpOut)
	if err != nil || !ok {
		t.Fatalf("self-compare: ok=%v err=%v\n%s", ok, err, table.String())
	}
	b, err := os.ReadFile(cmpOut)
	if err != nil {
		t.Fatal(err)
	}
	var cmp comparison
	if err := json.Unmarshal(b, &cmp); err != nil {
		t.Fatal(err)
	}
	e2e := 0
	for _, row := range cmp.Rows {
		if row.Kind == "end_to_end" {
			e2e++
			if row.Status != "ok" || row.Ratio != 1 {
				t.Errorf("%s %s: status %s ratio %g", row.Workload, row.Metric, row.Status, row.Ratio)
			}
		}
	}
	if want := len(workloads) * len(endToEndMetrics); e2e != want {
		t.Errorf("self-compare has %d end-to-end rows, want %d", e2e, want)
	}
}

// The seed is the only source of variation in what the program is fed.
func checkSeedDeterminesInputs(t *testing.T, name string, a *record) {
	t.Helper()
	b := smokeRun(t, name, false, smokeCfg)
	other := smokeCfg
	other.seed = 2
	c := smokeRun(t, name, false, other)
	if a.InputsHash != b.InputsHash {
		t.Errorf("%s: same seed, inputs %s and %s", name, a.InputsHash, b.InputsHash)
	}
	if a.InputsHash == c.InputsHash {
		t.Errorf("%s: seeds 1 and 2 gave the same inputs %s", name, a.InputsHash)
	}
	// Exact metrics repeat exactly on the same seed.
	for _, m := range []string{"wire_kb_per_query", "space_ratio"} {
		if a.Metrics[m] != b.Metrics[m] {
			t.Errorf("%s: %s differs between identical runs: %v, %v", name, m, a.Metrics[m], b.Metrics[m])
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	mk := func(file string, slowdown float64, failed int) string {
		var recs []*record
		for seed := int64(1); seed <= 4; seed++ {
			r := newRecord("hotpath", config{seed: seed, scale: scales["full"]}, false)
			for _, d := range endToEndMetrics {
				r.set(d.Name, 1+float64(seed)*0.001)
			}
			r.set("slowdown_total", slowdown+float64(seed))
			r.Attempted, r.Failed = 10, failed
			recs = append(recs, r)
		}
		path := filepath.Join(dir, file)
		if err := appendRecords(path, recs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("base.json", 1000, 0)
	var sink bytes.Buffer
	if ok, err := compareFiles(&sink, manifestPath, base, mk("slow.json", 1400, 0), ""); err != nil || ok {
		t.Errorf("40%% higher slowdown: ok=%v err=%v", ok, err)
	}
	if ok, err := compareFiles(&sink, manifestPath, base, mk("fast.json", 800, 0), ""); err != nil || !ok {
		t.Errorf("lower slowdown: ok=%v err=%v", ok, err)
	}
	if ok, err := compareFiles(&sink, manifestPath, base, mk("failing.json", 1000, 1), ""); err != nil || ok {
		t.Errorf("a failed operation: ok=%v err=%v", ok, err)
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which is what judges the benchmark's steadiness.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %g, %g; Python gives 1, 3", q1, q3)
	}
}

func TestReferenceMatching(t *testing.T) {
	want := newReference([][]any{{int64(2), 10.0, "b"}, {int64(1), 1e9 / 3, "a"}})
	same := [][]any{{int64(1), 1e9/3 + 1e-7, "a"}, {int64(2), 10.0, "b"}}
	if !want.matches(same) {
		t.Error("reordered rows with a last-digit float difference must match")
	}
	for _, bad := range [][][]any{
		{{int64(1), 1e9 / 3, "a"}},
		{{int64(1), 1e9 / 3, "a"}, {int64(2), 10.1, "b"}},
		{{int64(1), 1e9 / 3, "a"}, {int64(2), 10.0, nil}},
	} {
		if want.matches(bad) {
			t.Errorf("%v must not match", bad)
		}
	}
}
