package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func loadRecords(path string) ([]*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []*record
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return recs, nil
}

// sampleStat is one metric's values across the runs of one file.
type sampleStat struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func newSampleStat(xs []float64) sampleStat {
	q1, q3 := quartiles(xs)
	return sampleStat{N: len(xs), Median: median(xs), Q1: q1, Q3: q3}
}

// spread is the interquartile distance as a share of the median.
func (s sampleStat) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// compareRow is one workload × metric line of the gate.
type compareRow struct {
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	Kind     string     `json:"kind"` // end_to_end | informational | per_layer
	Unit     string     `json:"unit"`
	Better   string     `json:"better"`
	Bound    float64    `json:"bound,omitempty"`
	Base     sampleStat `json:"base"`
	New      sampleStat `json:"new"`
	// Ratio is new median ÷ base median (its base is Base.Median). Worse is
	// the share of the base median by which the new median is worse, in the
	// metric's own direction; negative means better.
	Ratio  float64 `json:"ratio"`
	Worse  float64 `json:"worse"`
	Spread float64 `json:"spread"`
	Status string  `json:"status"` // ok | regressed | unresolved | info
}

// comparison is what -compare -out writes: the committed baseline's shape.
type comparison struct {
	BaseFile string         `json:"base_file"`
	NewFile  string         `json:"new_file"`
	Env      environment    `json:"env"`
	Seeds    map[string]any `json:"seeds"`
	Failed   map[string]int `json:"failed_new"`
	Rows     []compareRow   `json:"rows,omitempty"`
}

func values(recs []*record, workload string, trace bool, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		} else if m, ok := r.Info[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func judge(d metricDecl, kind, workload string, base, fresh []float64) compareRow {
	row := compareRow{Workload: workload, Metric: d.Name, Kind: kind, Unit: d.Unit, Better: d.Better, Bound: d.Bound,
		Base: newSampleStat(base), New: newSampleStat(fresh), Status: "info"}
	if row.Base.Median != 0 {
		row.Ratio = row.New.Median / row.Base.Median
		row.Worse = row.Ratio - 1
		if d.Better == "higher" {
			row.Worse = -row.Worse
		}
	}
	row.Spread = row.Base.spread()
	if s := row.New.spread(); s > row.Spread {
		row.Spread = s
	}
	if kind != "end_to_end" {
		return row
	}
	switch {
	case row.Worse > d.Bound && row.Worse > row.Spread:
		row.Status = "regressed"
	case row.Spread > d.Bound:
		// Too noisy to call either way: not "unchanged".
		row.Status = "unresolved"
	default:
		row.Status = "ok"
	}
	return row
}

// compareFiles is the regression gate: per workload × end-to-end metric it
// prints base, new, ratio and bound, and reports whether nothing regressed.
func compareFiles(w io.Writer, manifestPath, basePath, newPath, out string) (bool, error) {
	m, err := loadManifest(manifestPath)
	if err != nil {
		return false, err
	}
	base, err := loadRecords(basePath)
	if err != nil {
		return false, err
	}
	fresh, err := loadRecords(newPath)
	if err != nil {
		return false, err
	}
	for _, r := range append(append([]*record(nil), base...), fresh...) {
		if r.Scale != "full" {
			fmt.Fprintf(w, "warning: %s seed %d ran at scale %q; only full-scale numbers mean anything\n", r.Workload, r.Seed, r.Scale)
			break
		}
	}
	cmp := comparison{BaseFile: basePath, NewFile: newPath, Env: fresh[0].Env,
		Seeds: map[string]any{"base": seedsOf(base), "new": seedsOf(fresh)}, Failed: map[string]int{}}
	ok := true
	fmt.Fprintf(w, "%-17s %-19s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "base", "new", "ratio", "spread", "bound", "status")
	for _, wl := range m.Workloads {
		for _, d := range m.EndToEnd {
			b, n := values(base, wl.Name, false, d.Name), values(fresh, wl.Name, false, d.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			row := judge(d, "end_to_end", wl.Name, b, n)
			cmp.Rows = append(cmp.Rows, row)
			fmt.Fprintf(w, "%-17s %-19s %12.6g %12.6g %8.4f %7.4f %7.4f  %s\n",
				row.Workload, row.Metric, row.Base.Median, row.New.Median, row.Ratio, row.Spread, row.Bound, row.Status)
			if row.Status == "regressed" {
				ok = false
			}
		}
		baseFailed, newFailed := failedOps(base, wl.Name), failedOps(fresh, wl.Name)
		cmp.Failed[wl.Name] = newFailed
		if newFailed > baseFailed {
			fmt.Fprintf(w, "%-17s failed operations rose from %d to %d: regressed\n", wl.Name, baseFailed, newFailed)
			ok = false
		}
		for _, d := range infoMetrics {
			b, n := values(base, wl.Name, false, d.Name), values(fresh, wl.Name, false, d.Name)
			if len(b) > 0 && len(n) > 0 {
				row := judge(d, "informational", wl.Name, b, n)
				cmp.Rows = append(cmp.Rows, row)
				fmt.Fprintf(w, "%-17s %-19s %12.6g %12.6g %8.4f %7.4f %7s  %s\n",
					row.Workload, row.Metric, row.Base.Median, row.New.Median, row.Ratio, row.Spread, "-", row.Status)
			}
		}
		for _, d := range m.PerLayer {
			b, n := values(base, wl.Name, true, d.Name), values(fresh, wl.Name, true, d.Name)
			if len(b) > 0 && len(n) > 0 {
				cmp.Rows = append(cmp.Rows, judge(d, "per_layer", wl.Name, b, n))
			}
		}
	}
	if len(cmp.Rows) == 0 {
		return false, fmt.Errorf("the two files share no workload")
	}
	if out != "" {
		if err := cmp.write(out); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// write stores the comparison with one row per line, for diffing.
func (c comparison) write(path string) error {
	rows, err := jsonLines(c.Rows)
	if err != nil {
		return err
	}
	c.Rows = nil // omitted from the head; appended below, line by line
	head, err := json.Marshal(c)
	if err != nil {
		return err
	}
	out := append(head[:len(head)-1], `,"rows":`...)
	out = append(append(out, rows...), "}\n"...)
	return os.WriteFile(path, out, 0o644)
}

func seedsOf(recs []*record) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, r := range recs {
		if !seen[r.Seed] {
			seen[r.Seed] = true
			out = append(out, r.Seed)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func failedOps(recs []*record, workload string) int {
	n := 0
	for _, r := range recs {
		if r.Workload == workload {
			n += r.Failed
		}
	}
	return n
}
