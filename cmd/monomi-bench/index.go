package main

// The index scenario (-exp index) sweeps predicate selectivity over one
// table and measures the secondary-index access paths against full scans:
// the same COUNT query, indexes off (SetIndexes(false), every execution
// scans the whole encrypted table) versus on (the DET hash index serves
// the equality probe, the OPE ordered index the 100% range point). The
// planted value frequencies put one point at each decade from 0.001% to
// 10%, plus a 100% range predicate where both the planner's estimate and
// the engine's exact-count rule must fall back to the scan. Correctness is
// asserted per point: both modes must return the planted match count.

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	monomi "repro"
)

// indexPoint is one selectivity sweep point: a parameterized COUNT query
// and the number of rows its predicate matches.
type indexPoint struct {
	name  string
	sql   string
	param map[string]any
	match int
}

// indexScenario builds ix(x_id, x_sel, x_val) with planted x_sel
// frequencies and sweeps scan-vs-index across selectivities.
func indexScenario(rows, iters int, sink *jsonSink) error {
	if rows < 1000 {
		rows = 1000
	}
	if iters <= 0 {
		iters = 7
	}
	fmt.Fprintf(os.Stderr, "index scenario: encrypting %d rows...\n", rows)

	// Planted frequencies: value j+1 occurs counts[j] times (one point per
	// selectivity decade), value 0 fills the remainder.
	sels := []float64{0.00001, 0.0001, 0.001, 0.01, 0.1}
	counts := make([]int, len(sels))
	cum := make([]int, len(sels))
	total := 0
	for j, s := range sels {
		c := int(float64(rows) * s)
		if c < 1 {
			c = 1
		}
		counts[j] = c
		total += c
		cum[j] = total
	}

	db := monomi.NewDatabase()
	db.MustCreateTable("ix",
		monomi.Col("x_id", monomi.Int), monomi.Col("x_sel", monomi.Int), monomi.Col("x_val", monomi.Int))
	for i := 0; i < rows; i++ {
		val := 0
		for j := range cum {
			if i < cum[j] {
				val = j + 1
				break
			}
		}
		db.MustInsert("ix", i, val, i%1000)
	}

	points := make([]indexPoint, 0, len(sels)+1)
	for j, c := range counts {
		points = append(points, indexPoint{
			name:  fmt.Sprintf("%.3g%%", sels[j]*100),
			sql:   `SELECT COUNT(*) FROM ix WHERE x_sel = :v`,
			param: map[string]any{"v": j + 1},
			match: c,
		})
	}
	points = append(points, indexPoint{
		name:  "100%",
		sql:   `SELECT COUNT(*) FROM ix WHERE x_sel >= :v`,
		param: map[string]any{"v": 0},
		match: rows,
	})

	opts := monomi.DefaultOptions()
	opts.PaillierBits = 256
	opts.SpaceBudget = 0
	sys, err := monomi.Encrypt(db, monomi.Workload{
		"eq":    `SELECT COUNT(*) FROM ix WHERE x_sel = 3`,
		"range": `SELECT COUNT(*) FROM ix WHERE x_sel >= 0`,
	}, opts)
	if err != nil {
		return err
	}
	defer sys.Close()

	fmt.Printf("%-12s %9s %11s %11s %9s %14s  %s\n",
		"selectivity", "match", "scan-qps", "index-qps", "speedup", "skipped/query", "access")
	var lowSelSpeedup float64
	scanAt100 := false
	for _, p := range points {
		sys.SetIndexes(false)
		scan, _, err := runIndexPoint(sys, p, iters)
		if err != nil {
			return err
		}
		sys.SetIndexes(true)
		before := sys.Stats()
		idx, plan, err := runIndexPoint(sys, p, iters)
		if err != nil {
			return err
		}
		after := sys.Stats()
		// iters timed executions plus runIndexPoint's one priming execution.
		skipped := (after.RowsSkippedByIndex - before.RowsSkippedByIndex) / int64(iters+1)
		access := planAccess(plan)
		speedup := idx.qps / scan.qps
		fmt.Printf("%-12s %9d %11.1f %11.1f %8.1fx %14d  %s\n",
			p.name, p.match, scan.qps, idx.qps, speedup, skipped, access)
		if p.match <= rows/1000 && (lowSelSpeedup == 0 || speedup < lowSelSpeedup) {
			lowSelSpeedup = speedup
		}
		if p.match == rows {
			scanAt100 = strings.HasPrefix(access, "scan")
		}
		sink.add(map[string]any{
			"exp": "index", "selectivity": p.name, "match": p.match,
			"scan_qps": scan.qps, "index_qps": idx.qps, "speedup": speedup,
			"scan_p50_ms": scan.p50, "scan_p99_ms": scan.p99,
			"index_p50_ms": idx.p50, "index_p99_ms": idx.p99,
			"rows_skipped_per_query": skipped, "access": access,
		})
	}
	st := sys.Stats()
	fmt.Printf("\nworst speedup at <=0.1%% selectivity: %.1fx (target >=10x)\n", lowSelSpeedup)
	fmt.Printf("planner chose scan at 100%% selectivity: %v\n", scanAt100)
	fmt.Printf("index lookups %d, rows skipped %d, intern ratio %.2fx (%d -> %d bytes)\n",
		st.IndexLookups, st.RowsSkippedByIndex, st.InternRatio(), st.EncRawBytes, st.EncBytes)
	sink.add(map[string]any{
		"exp": "index-summary", "rows": rows,
		"low_sel_speedup": lowSelSpeedup, "scan_at_100pct": scanAt100,
		"index_lookups": st.IndexLookups, "rows_skipped": st.RowsSkippedByIndex,
		"enc_bytes": st.EncBytes, "enc_raw_bytes": st.EncRawBytes,
		"intern_ratio": st.InternRatio(),
	})
	return nil
}

// indexMeasure is one mode's timing over a sweep point.
type indexMeasure struct {
	qps, p50, p99 float64
}

// runIndexPoint primes the plan cache, asserts the COUNT result, and times
// iters executions.
func runIndexPoint(sys *monomi.System, p indexPoint, iters int) (indexMeasure, string, error) {
	stmt, err := sys.Prepare(p.sql)
	if err != nil {
		return indexMeasure{}, "", err
	}
	defer stmt.Close()
	r, err := stmt.Query(p.param)
	if err != nil {
		return indexMeasure{}, "", err
	}
	if got := countOf(r); got != int64(p.match) {
		return indexMeasure{}, "", fmt.Errorf("point %s: COUNT returned %d, want %d", p.name, got, p.match)
	}
	latencies := make([]time.Duration, iters)
	start := time.Now()
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if _, err := stmt.Query(p.param); err != nil {
			return indexMeasure{}, "", err
		}
		latencies[i] = time.Since(t0)
	}
	elapsed := time.Since(start)
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(latencies)-1))
		return float64(latencies[idx].Microseconds()) / 1000
	}
	return indexMeasure{
		qps: float64(iters) / elapsed.Seconds(),
		p50: pct(0.50),
		p99: pct(0.99),
	}, r.PlanText, nil
}

// countOf extracts the single COUNT cell from a result.
func countOf(r *monomi.Rows) int64 {
	if len(r.Data) != 1 || len(r.Data[0]) != 1 {
		return -1
	}
	switch x := r.Data[0][0].(type) {
	case int64:
		return x
	case float64:
		return int64(x)
	}
	return -1
}

// planAccess pulls the costed access-path annotation out of a plan
// rendering ("-" when the plan carries none, e.g. with indexes off).
func planAccess(plan string) string {
	for _, line := range strings.Split(plan, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "access "); ok {
			return rest
		}
	}
	return "-"
}
