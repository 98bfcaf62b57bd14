// Command bench is the repository's one measured suite: four workloads,
// nine end-to-end metrics and a per-layer attribution taken from outside
// the program (see README.md in this directory). It claims nothing; it is
// the ruler later changes are measured with.
//
//	go run ./bench -workload <name|all> -seed <n> -seconds <s> -trace <0|1>
//	go run ./bench -compare A.json B.json
//
// The last line of standard output of a workload run is one JSON object
// {"correct", "attempted", "failed", "metrics"}; everything before it is
// for people.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"

	monomi "repro"
)

// scale is the one switch that shrinks the load. Only "full" numbers are
// ever compared; "smoke" exists so the tier-1 test can drive every code
// path of the harness in seconds.
type scale struct {
	name         string
	sf           float64 // TPC-H scale factor
	paillierBits int     // 0 keeps DefaultOptions' 1024 bits
	evRows       int     // rows of the hotpath table
	cacheBytes   int64   // served workload's per-table block cache
	minPasses    int     // timed passes (or hotpath blocks) run even at -seconds 0
	hotBlock     int     // hotpath ops per timed block
	tracePasses  int     // traced + untraced passes each in a -trace 1 run
	traceOps     int     // hotpath ops per traced/untraced half
	probeN       int     // values per crypto/storage micro-probe
	paillierN    int     // values per Paillier probe (each costs ~1 ms)
	checks       bool    // enforce the run's preconditions
}

var scales = map[string]scale{
	"full": {
		name: "full", sf: 0.01, evRows: 100000, cacheBytes: 2 << 20,
		minPasses: 2, hotBlock: 5000, tracePasses: 2, traceOps: 10000,
		probeN: 1000, paillierN: 200, checks: true,
	},
	"smoke": {
		name: "smoke", sf: 0.0005, paillierBits: 256, evRows: 5000, cacheBytes: 64 << 10,
		minPasses: 1, hotBlock: 500, tracePasses: 1, traceOps: 500,
		probeN: 100, paillierN: 20,
	},
}

// config is one run's inputs. Everything the program under test receives
// is derived from (workload, seed, scale); seconds only decides how many
// identical passes are timed.
type config struct {
	seed    int64
	seconds float64
	scale   scale
	spans   string // span file path for a traced run ("" = none)
}

// options is the Options value every workload encrypts with: the defaults a
// user gets, with no execution-mode knob set (README.md, "Configuration").
func (c config) options() monomi.Options {
	opts := monomi.DefaultOptions()
	if c.scale.paillierBits != 0 {
		opts.PaillierBits = c.scale.paillierBits
	}
	return opts
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is recorded with every run so a results file says where its
// numbers came from.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
}

// record is one run of one workload, as -out stores it.
type record struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Scale       string                 `json:"scale"`
	Seconds     float64                `json:"seconds"`
	Trace       bool                   `json:"trace"`
	Env         environment            `json:"env"`
	InputsHash  string                 `json:"inputs_hash"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Samples     map[string]int         `json:"samples"`
	Metrics     map[string]metric      `json:"metrics"`
	Info        map[string]metric      `json:"info,omitempty"`          // an untraced run's unbounded measurements (infoMetrics)
	PassQPS     []float64              `json:"pass_qps,omitempty"`      // one throughput sample per timed pass
	PassCPUMS   []float64              `json:"pass_cpu_ms,omitempty"`   // per pass: process CPU ms per encrypted op
	PassEncMS   [][]float64            `json:"pass_enc_ms,omitempty"`   // per pass, per shape: Σ encrypted wall of the paired ops
	PassPlainMS [][]float64            `json:"pass_plain_ms,omitempty"` // per pass, per shape: Σ plaintext wall
	Notes       []string               `json:"notes,omitempty"`
	Spans       map[string]spanSummary `json:"spans,omitempty"`
}

func newRecord(workload string, cfg config, trace bool) *record {
	return &record{
		Workload: workload, Seed: cfg.seed, Scale: cfg.scale.name, Seconds: cfg.seconds, Trace: trace,
		Env: environment{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		},
		Samples: map[string]int{},
		Metrics: map[string]metric{},
		Info:    map[string]metric{},
	}
}

func (r *record) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// info records an informational measurement of an untraced run.
func (r *record) info(name string, v float64) {
	r.Info[name] = metric{Value: v, Unit: metricUnits[name]}
}

func (r *record) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// resultLine is the contract's last line of output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics) and checks that it reported exactly the declared
// names.
func runWorkload(ctx context.Context, name string, trace bool, cfg config) (*record, error) {
	w, ok := workloadByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	var (
		rec  *record
		err  error
		want []metricDecl
	)
	if trace {
		rec, err = w.runTraced(ctx, cfg)
		want = perLayerMetrics()
	} else {
		rec, err = w.run(ctx, cfg)
		want = endToEndMetrics
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(rec.Metrics) != len(want) {
		return nil, fmt.Errorf("%s: reported %d metrics, %d declared", name, len(rec.Metrics), len(want))
	}
	for _, d := range want {
		if _, ok := rec.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("%s: metric %s not reported", name, d.Name)
		}
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// report prints a record for people, then the contract's JSON line.
func report(rec *record) error {
	fmt.Printf("workload %s  seed %d  scale %s  trace %v  inputs %s\n",
		rec.Workload, rec.Seed, rec.Scale, rec.Trace, rec.InputsHash)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, d := range infoMetrics {
		if m, ok := rec.Info[d.Name]; ok {
			fmt.Printf("  %-36s %14.6g %s  (informational, unbounded)\n", d.Name, m.Value, m.Unit)
		}
	}
	keys := make([]string, 0, len(rec.Samples))
	for k := range rec.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Print("  samples:")
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, rec.Samples[k])
	}
	fmt.Println()
	for _, n := range rec.Notes {
		fmt.Println("  note:", n)
	}
	fmt.Printf("  attempted %d  failed %d  failed_frac %g\n",
		rec.Attempted, rec.Failed, float64(rec.Failed)/float64(rec.Attempted))
	line, err := json.Marshal(resultLine{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// appendRecords adds records to the JSON array stored at path.
func appendRecords(path string, recs []*record) error {
	var all []*record
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	all = append(all, recs...)
	out, err := jsonLines(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// jsonLines renders a JSON array with one element per line: the files are
// committed and diffed.
func jsonLines[T any](items []T) ([]byte, error) {
	var out bytes.Buffer
	out.WriteString("[\n")
	for i, it := range items {
		b, err := json.Marshal(it)
		if err != nil {
			return nil, err
		}
		out.Write(b)
		if i < len(items)-1 {
			out.WriteByte(',')
		}
		out.WriteByte('\n')
	}
	out.WriteString("]")
	return out.Bytes(), nil
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Int64("seed", 1, "seed for generated data, parameters and client rotation")
		seconds   = flag.Float64("seconds", 10, "time budget of the timed phase; whole passes run until it is used")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		scaleName = flag.String("scale", "full", "full, or smoke (never compared)")
		out       = flag.String("out", "", "append this run's record(s) to a JSON array file")
		spans     = flag.String("spans", "", "with -trace 1: write every recorded span to this file")
		compare   = flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
		manifest  = flag.String("manifest", "BENCHMARK.json", "benchmark manifest (bounds for -compare)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, *manifest, flag.Arg(0), flag.Arg(1), *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	sc, ok := scales[*scaleName]
	if !ok || flag.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad -scale, -trace or stray arguments")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, scale: sc, spans: *spans}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	// Cancellation unwinds through the workloads' defers, which is what
	// removes segment directories and closes servers on every exit path.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(runAll(ctx, names, *trace == 1, cfg, *out))
}

func runAll(ctx context.Context, names []string, trace bool, cfg config, out string) int {
	var recs []*record
	code := 0
	for _, name := range names {
		rec, err := runWorkload(ctx, name, trace, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := report(rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !rec.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", name, rec.Failed, rec.Attempted)
			code = 1
		}
		recs = append(recs, rec)
	}
	if out != "" {
		if err := appendRecords(out, recs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}
