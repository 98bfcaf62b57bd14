package main

// The backend scenario (-exp backend) measures the storage seam: the same
// encrypted aggregate workload on the in-memory backend versus the
// disk-backed paged store, with the encrypted table deliberately larger
// than the configured block cache so the disk runs pay real page reads.
// Each backend is timed cold (first execution after load: every page
// misses) and warm (steady state under cache pressure), and correctness is
// asserted per run: both backends must return identical aggregate rows.

import (
	"fmt"
	"os"
	"sort"
	"time"

	monomi "repro"
)

// backendMeasure is one backend's timing and I/O over the scenario queries.
type backendMeasure struct {
	coldMS        float64
	qps, p50, p99 float64
	pageReadsPerQ int64
	pageBytesPerQ int64
	hitRate       float64
	hotQPS        float64
	hotHitRate    float64
	hotReadsPerQ  int64
	rows          string
}

// backendScenario builds bk(b_id, b_grp, b_val, b_pad) with per-row-unique
// padding (so interning cannot shrink the table under the cache budget) and
// sweeps the same grouped aggregate over both backends.
func backendScenario(rows, iters, pageBytes int, cacheBytes int64, sink *jsonSink) error {
	if rows < 1000 {
		rows = 1000
	}
	if iters <= 0 {
		iters = 6
	}
	fmt.Fprintf(os.Stderr, "backend scenario: encrypting %d rows twice (page %dB, cache %dB)...\n",
		rows, pageBytes, cacheBytes)

	db := monomi.NewDatabase()
	db.MustCreateTable("bk",
		monomi.Col("b_id", monomi.Int), monomi.Col("b_grp", monomi.Int),
		monomi.Col("b_val", monomi.Int), monomi.Col("b_pad", monomi.String))
	for i := 0; i < rows; i++ {
		pad := fmt.Sprintf("pad-%06d-%07d-%07d", i, i*7%1000003, i*13%999983)
		db.MustInsert("bk", i, i%16, i%997, pad)
	}
	// Two access regimes: the full-table aggregate thrashes an LRU cache
	// smaller than the table (every scan pays real reads), while the hot
	// range touches a page working set that fits, so warm executions hit.
	const sql = `SELECT b_grp, SUM(b_val), COUNT(*) FROM bk GROUP BY b_grp ORDER BY b_grp`
	hotSQL := fmt.Sprintf(`SELECT COUNT(*), SUM(b_val) FROM bk WHERE b_id < %d`, rows/40)

	build := func(backend string) (*monomi.System, func(), error) {
		opts := monomi.DefaultOptions()
		opts.PaillierBits = 256
		opts.SpaceBudget = 0
		cleanup := func() {}
		if backend == "disk" {
			dir, err := os.MkdirTemp("", "monomi-bench-backend-")
			if err != nil {
				return nil, nil, err
			}
			cleanup = func() { os.RemoveAll(dir) }
			opts.Backend = "disk"
			opts.DataDir = dir
			opts.PageBytes = pageBytes
			opts.BlockCacheBytes = cacheBytes
		}
		sys, err := monomi.Encrypt(db, monomi.Workload{"agg": sql, "hot": hotSQL}, opts)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		return sys, cleanup, nil
	}

	measure := func(sys *monomi.System) (backendMeasure, error) {
		st0 := sys.Stats()
		t0 := time.Now()
		r, err := sys.Query(sql)
		if err != nil {
			return backendMeasure{}, err
		}
		cold := time.Since(t0)
		stCold := sys.Stats()
		latencies := make([]time.Duration, iters)
		start := time.Now()
		for i := 0; i < iters; i++ {
			t1 := time.Now()
			if _, err := sys.Query(sql); err != nil {
				return backendMeasure{}, err
			}
			latencies[i] = time.Since(t1)
		}
		elapsed := time.Since(start)
		stWarm := sys.Stats()
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		pct := func(p float64) float64 {
			return float64(latencies[int(p*float64(len(latencies)-1))].Microseconds()) / 1000
		}
		hitRate := func(a, b monomi.Stats) float64 {
			dh := b.CacheHits - a.CacheHits
			dm := b.CacheMisses - a.CacheMisses
			if dh+dm == 0 {
				return 0
			}
			return float64(dh) / float64(dh+dm)
		}
		// Hot phase: prime the cache with the short range once, then time
		// repeated executions of a working set that fits.
		hr, err := sys.Query(hotSQL)
		if err != nil {
			return backendMeasure{}, err
		}
		stHot0 := sys.Stats()
		hotStart := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := sys.Query(hotSQL); err != nil {
				return backendMeasure{}, err
			}
		}
		hotElapsed := time.Since(hotStart)
		stHot := sys.Stats()
		_ = st0
		return backendMeasure{
			coldMS:        float64(cold.Microseconds()) / 1000,
			qps:           float64(iters) / elapsed.Seconds(),
			p50:           pct(0.50),
			p99:           pct(0.99),
			pageReadsPerQ: (stWarm.PageReads - stCold.PageReads) / int64(iters),
			pageBytesPerQ: (stWarm.PageBytesRead - stCold.PageBytesRead) / int64(iters),
			hitRate:       hitRate(stCold, stWarm),
			hotQPS:        float64(iters) / hotElapsed.Seconds(),
			hotHitRate:    hitRate(stHot0, stHot),
			hotReadsPerQ:  (stHot.PageReads - stHot0.PageReads) / int64(iters),
			rows:          fmt.Sprintf("%v %v", r.Data, hr.Data),
		}, nil
	}

	results := map[string]backendMeasure{}
	var encBytes int64
	var diskStats monomi.Stats
	for _, backend := range []string{"mem", "disk"} {
		sys, cleanup, err := build(backend)
		if err != nil {
			return err
		}
		m, err := measure(sys)
		if err != nil {
			sys.Close()
			cleanup()
			return err
		}
		if backend == "disk" {
			diskStats = sys.Stats()
			encBytes = diskStats.EncBytes
		}
		sys.Close()
		cleanup()
		results[backend] = m
	}
	if results["mem"].rows != results["disk"].rows {
		return fmt.Errorf("backend scenario: disk result diverges from mem:\n%s\nvs\n%s",
			results["disk"].rows, results["mem"].rows)
	}
	if encBytes <= cacheBytes {
		return fmt.Errorf("backend scenario: encrypted table (%d bytes) fits the block cache (%d bytes); lower -cachebytes or raise -backendrows",
			encBytes, cacheBytes)
	}
	if diskStats.PageReads == 0 {
		return fmt.Errorf("backend scenario: disk backend charged no page reads")
	}

	fmt.Printf("%-8s %9s %9s %9s %9s %12s %14s %9s %9s %9s\n",
		"backend", "cold-ms", "qps", "p50-ms", "p99-ms", "reads/query", "KB-read/query", "hit-rate", "hot-qps", "hot-hit")
	for _, backend := range []string{"mem", "disk"} {
		m := results[backend]
		fmt.Printf("%-8s %9.1f %9.1f %9.2f %9.2f %12d %14.1f %9.3f %9.1f %9.3f\n",
			backend, m.coldMS, m.qps, m.p50, m.p99,
			m.pageReadsPerQ, float64(m.pageBytesPerQ)/1024, m.hitRate, m.hotQPS, m.hotHitRate)
		sink.add(map[string]any{
			"exp": "backend", "backend": backend,
			"cold_ms": m.coldMS, "qps": m.qps, "p50_ms": m.p50, "p99_ms": m.p99,
			"page_reads_per_query": m.pageReadsPerQ, "page_bytes_per_query": m.pageBytesPerQ,
			"cache_hit_rate": m.hitRate,
			"hot_qps":        m.hotQPS, "hot_cache_hit_rate": m.hotHitRate,
			"hot_page_reads_per_query": m.hotReadsPerQ,
		})
	}
	penalty := results["mem"].qps / results["disk"].qps
	fmt.Printf("\nencrypted table %d bytes vs %d-byte block cache (%.1fx over)\n",
		encBytes, cacheBytes, float64(encBytes)/float64(cacheBytes))
	fmt.Printf("disk totals: %d page reads, %d bytes, hit rate %.3f; mem/disk qps ratio %.2fx\n",
		diskStats.PageReads, diskStats.PageBytesRead, diskStats.CacheHitRate(), penalty)
	sink.add(map[string]any{
		"exp": "backend-summary", "rows": rows,
		"enc_bytes": encBytes, "cache_bytes": cacheBytes, "page_bytes": pageBytes,
		"disk_page_reads": diskStats.PageReads, "disk_page_bytes_read": diskStats.PageBytesRead,
		"disk_cache_hit_rate": diskStats.CacheHitRate(),
		"mem_qps":             results["mem"].qps, "disk_qps": results["disk"].qps,
		"mem_over_disk_qps": penalty,
	})
	return nil
}
