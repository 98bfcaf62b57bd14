package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metricDecl mirrors one entry of BENCHMARK.json; bench_test.go checks
// the two stay identical.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics is what a user of the system sees and the regression
// gate bounds. Every workload reports all of them from its untraced run.
// README.md gives each one's definition and where its bound came from —
// and why wall-clock throughput and latency are not among them on this
// sandbox (they are the informational metrics below).
var endToEndMetrics = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"slowdown_total", "ratio", "lower", 0.25},
	{"slowdown_geomean", "ratio", "lower", 0.25},
	{"alloc_mb_per_query", "MB", "lower", 0.06},
	{"wire_kb_per_query", "KB", "lower", 0.03},
	{"space_ratio", "ratio", "lower", 0.005},
}

// shapeNames is every query shape any workload runs; each has a
// monomi.<shape>_ms and monomi.<shape>_slowdown per-layer metric, reported
// as 0 by workloads that do not run the shape.
func shapeNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range workloads {
		for _, s := range w.shapes() {
			if !seen[s.name] {
				seen[s.name] = true
				out = append(out, s.name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// perLayerMetrics is the -trace 1 report: one layer = one package of the
// repository. README.md says which end-to-end metric each should move, on
// which workload.
func perLayerMetrics() []metricDecl {
	var out []metricDecl
	for _, s := range shapeNames() {
		out = append(out,
			metricDecl{Name: "monomi." + s + "_ms", Unit: "ms", Better: "lower"},
			metricDecl{Name: "monomi." + s + "_slowdown", Unit: "ratio", Better: "lower"})
	}
	return append(out, fixedLayerMetrics...)
}

// infoMetrics are measured by every untraced run and kept in its record,
// but carry no bound: the sandbox's speed drifts by tens of percent for
// minutes at a time, and only within-run ratios survive that.
var infoMetrics = []metricDecl{
	{Name: "throughput_qps", Unit: "1/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "setup_cpu_s", Unit: "s", Better: "lower"},
}

var fixedLayerMetrics = []metricDecl{
	{Name: "monomi.throughput_qps", Unit: "1/s", Better: "higher"},
	{Name: "monomi.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "monomi.slowdown_median", Unit: "ratio", Better: "lower"},
	{Name: "monomi.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "monomi.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "monomi.first_pass_s", Unit: "s", Better: "lower"},
	{Name: "monomi.gc_cycles_per_query", Unit: "count", Better: "lower"},
	{Name: "monomi.peak_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},

	{Name: "sqlparser.parse_us", Unit: "us", Better: "lower"},
	{Name: "planner.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "planner.plancache_hit_frac", Unit: "ratio", Better: "higher"},

	{Name: "client.self_ms", Unit: "ms", Better: "lower"},
	{Name: "client.clienttime_ms", Unit: "ms", Better: "lower"},
	{Name: "client.decrypts_per_query", Unit: "count", Better: "lower"},
	{Name: "client.remote_calls_per_query", Unit: "count", Better: "lower"},

	{Name: "server.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.rows_scanned_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.bytes_scanned_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.subquery_runs_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.index_lookups_per_query", Unit: "count", Better: "higher"},
	{Name: "engine.rows_skipped_per_query", Unit: "count", Better: "higher"},
	{Name: "engine.ns_per_row_scanned", Unit: "ns", Better: "lower"},
	{Name: "engine.plain_execute_ms", Unit: "ms", Better: "lower"},

	{Name: "crypto.udf_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "crypto.det_decrypt_ns", Unit: "ns", Better: "lower"},
	{Name: "crypto.det_encrypt_ns", Unit: "ns", Better: "lower"},
	{Name: "crypto.ope_encrypt_us", Unit: "us", Better: "lower"},
	{Name: "crypto.ope_decrypt_us", Unit: "us", Better: "lower"},
	{Name: "crypto.rnd_decrypt_ns", Unit: "ns", Better: "lower"},
	{Name: "crypto.paillier_encrypt_us", Unit: "us", Better: "lower"},
	{Name: "crypto.paillier_decrypt_us", Unit: "us", Better: "lower"},
	{Name: "crypto.paillier_add_ns", Unit: "ns", Better: "lower"},

	{Name: "storage.page_reads_per_query", Unit: "count", Better: "lower"},
	{Name: "storage.page_kb_per_query", Unit: "KB", Better: "lower"},
	{Name: "storage.cache_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "storage.enc_mb", Unit: "MB", Better: "lower"},
	{Name: "storage.intern_ratio", Unit: "ratio", Better: "higher"},
	{Name: "storage.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "storage.fetch_us_per_row", Unit: "us", Better: "lower"},

	{Name: "wire.encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_row", Unit: "count", Better: "lower"},
	{Name: "transport.overhead_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "transport.rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.connect_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.rejects", Unit: "count", Better: "lower"},

	{Name: "netsim.sim_server_s_per_query", Unit: "s", Better: "lower"},
	{Name: "netsim.sim_transfer_s_per_query", Unit: "s", Better: "lower"},
	{Name: "netsim.sim_total_s_per_query", Unit: "s", Better: "lower"},
	{Name: "netsim.sim_slowdown_median", Unit: "ratio", Better: "lower"},

	{Name: "tpch.generate_s", Unit: "s", Better: "lower"},
	{Name: "designer.run_s", Unit: "s", Better: "lower"},
	{Name: "designer.ilp_vars", Unit: "count", Better: "lower"},
	{Name: "designer.hom_items", Unit: "count", Better: "higher"},
	{Name: "enc.encrypt_s", Unit: "s", Better: "lower"},
	{Name: "enc.rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "storage.flush_s", Unit: "s", Better: "lower"},
}

// metricUnits maps every declared name to its unit.
var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDecl(nil), endToEndMetrics...), infoMetrics...) {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayerMetrics() {
		m[d.Name] = d.Unit
	}
	return m
}()

// --- statistics ---

// quantile is the linear-interpolation quantile of an unsorted sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(n=4)
// does (exclusive method), which is what the regression gate is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

// tailQuantile is the q-quantile only where at least ten samples lie beyond
// it; otherwise the tail is not supported by the sample and 0 is reported.
func tailQuantile(xs []float64, q float64) float64 {
	if float64(len(xs))*(1-q) < 10 {
		return 0
	}
	return quantile(xs, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, failing loudly when b is zero: a zero denominator here means
// the run measured nothing.
func ratio(a, b float64, what string) (float64, error) {
	if b == 0 || math.IsNaN(a/b) || math.IsInf(a/b, 0) {
		return 0, fmt.Errorf("%s: %g / %g is not a number", what, a, b)
	}
	return a / b, nil
}

// --- processor time and memory ---

// cpuTime is the process's user + system CPU time so far, all threads:
// mutator, GC workers, server sessions alike. Unlike wall time it does not
// stretch when the two virtual CPUs are made to share one core.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("bench: getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const heapObjects = "/memory/classes/heap/objects:bytes"

// memoryPass runs fn once after a GC and reports what it allocated
// (TotalAlloc delta) and the largest heap of objects, live or not yet
// collected, that a 5 ms sampler saw.
func memoryPass(fn func() error) (allocBytes, peakBytes uint64, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sample := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peakBytes {
				peakBytes = v
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	err = fn()
	close(stop)
	wg.Wait()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, peakBytes, err
}
