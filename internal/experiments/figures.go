package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/tpch"
)

// Figure 4: per-query execution time of the 19 supported TPC-H queries,
// normalized to plaintext, under CryptDB+Client, Execution-Greedy, and
// MONOMI.

// Fig4Row is one query's timings.
type Fig4Row struct {
	Query   int
	Plain   time.Duration
	CryptDB time.Duration
	Greedy  time.Duration
	Monomi  time.Duration
}

// Ratio helpers.
func ratio(x, base time.Duration) float64 {
	if base <= 0 {
		return math.NaN()
	}
	return float64(x) / float64(base)
}

// Fig4Result is the full figure.
type Fig4Result struct {
	Rows []Fig4Row
}

// Medians returns the median slowdown per system.
func (r *Fig4Result) Medians() (cryptdb, greedy, monomi float64) {
	var a, b, c []float64
	for _, row := range r.Rows {
		a = append(a, ratio(row.CryptDB, row.Plain))
		b = append(b, ratio(row.Greedy, row.Plain))
		c = append(c, ratio(row.Monomi, row.Plain))
	}
	return median(a), median(b), median(c)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// String renders the figure as the paper's bar data.
func (r *Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: TPC-H execution time normalized to plaintext\n")
	fmt.Fprintf(&b, "%-5s %12s %16s %18s %10s\n", "query", "plaintext", "CryptDB+Client", "Execution-Greedy", "MONOMI")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "Q%-4d %12s %15.2fx %17.2fx %9.2fx\n",
			row.Query, row.Plain.Round(time.Millisecond),
			ratio(row.CryptDB, row.Plain), ratio(row.Greedy, row.Plain), ratio(row.Monomi, row.Plain))
	}
	mc, mg, mm := r.Medians()
	fmt.Fprintf(&b, "%-5s %12s %15.2fx %17.2fx %9.2fx\n", "med", "", mc, mg, mm)
	return b.String()
}

// Suite shares the three standard benches plus timing helpers.
type Suite struct {
	Monomi  *Bench
	Greedy  *Bench
	CryptDB *Bench
}

// NewSuite stands up the three standard configurations under base's scale,
// seed, key width and execution knobs.
func NewSuite(base Config) (*Suite, error) {
	s := &Suite{}
	var err error
	if s.Monomi, err = Setup(base.under(MonomiConfig(base.SF))); err != nil {
		return nil, fmt.Errorf("monomi: %w", err)
	}
	if s.Greedy, err = Setup(base.under(ExecutionGreedyConfig(base.SF))); err != nil {
		return nil, fmt.Errorf("greedy: %w", err)
	}
	if s.CryptDB, err = Setup(base.under(CryptDBClientConfig(base.SF))); err != nil {
		return nil, fmt.Errorf("cryptdb: %w", err)
	}
	return s, nil
}

// Figure4 measures all queries under the three systems.
func (s *Suite) Figure4() (*Fig4Result, error) {
	out := &Fig4Result{}
	for _, qn := range tpch.SupportedQueries() {
		plain, err := s.Monomi.RunPlain(qn)
		if err != nil {
			return nil, fmt.Errorf("Q%d plain: %w", qn, err)
		}
		rc, err := s.CryptDB.RunEncrypted(qn)
		if err != nil {
			return nil, fmt.Errorf("Q%d cryptdb: %w", qn, err)
		}
		rg, err := s.Greedy.RunEncrypted(qn)
		if err != nil {
			return nil, fmt.Errorf("Q%d greedy: %w", qn, err)
		}
		rm, err := s.Monomi.RunEncrypted(qn)
		if err != nil {
			return nil, fmt.Errorf("Q%d monomi: %w", qn, err)
		}
		out.Rows = append(out.Rows, Fig4Row{
			Query:   qn,
			Plain:   plain.Total,
			CryptDB: rc.Total(),
			Greedy:  rg.Total(),
			Monomi:  rm.Total(),
		})
	}
	return out, nil
}

// Figure 5/6: cumulative technique levels. Each level is a configuration;
// Figure 5 reports mean and geometric-mean runtime per level, Figure 6 the
// query that benefits the most at each step.

// Level names in paper order.
var Fig5Levels = []string{
	"CryptDB+Client", "+Col packing", "+Precomputation", "+Columnar agg", "+Other", "+Planner",
}

// levelConfig builds the configuration for one cumulative level.
func levelConfig(level int, base Config) Config {
	cfg := base.under(Config{GreedyExecution: true, DisablePrefilter: true})
	cfg.Name = Fig5Levels[level]
	cfg.Designer.AllItems = true
	cfg.Designer.NoPrecomputation = true
	cfg.Designer.OnionBaseline = true
	if level >= 1 { // +Col packing: grouped homomorphic columns
		cfg.Designer.GroupedAddition = true
	}
	if level >= 2 { // +Precomputation (and MONOMI's leaner RND baseline)
		cfg.Designer.NoPrecomputation = false
		cfg.Designer.OnionBaseline = false
	}
	if level >= 3 { // +Columnar agg: multi-row packing
		cfg.Designer.MultiRowPacking = true
	}
	if level >= 4 { // +Other: pre-filtering
		cfg.DisablePrefilter = false
	}
	if level >= 5 { // +Planner
		cfg.GreedyExecution = false
	}
	return cfg
}

// Fig5Result holds per-level aggregate runtimes and the per-query detail.
type Fig5Result struct {
	Levels   []string
	Mean     []time.Duration
	GeoMean  []time.Duration
	PerQuery map[int][]time.Duration // query -> per-level time
}

// Figure5 runs every query at every cumulative level.
func Figure5(base Config) (*Fig5Result, error) {
	res := &Fig5Result{Levels: Fig5Levels, PerQuery: make(map[int][]time.Duration)}
	for level := range Fig5Levels {
		b, err := Setup(levelConfig(level, base))
		if err != nil {
			return nil, fmt.Errorf("level %q: %w", Fig5Levels[level], err)
		}
		var sum float64
		var logSum float64
		n := 0
		for _, qn := range tpch.SupportedQueries() {
			r, err := b.RunEncrypted(qn)
			if err != nil {
				return nil, fmt.Errorf("level %q Q%d: %w", Fig5Levels[level], qn, err)
			}
			d := r.Total()
			res.PerQuery[qn] = append(res.PerQuery[qn], d)
			sum += d.Seconds()
			logSum += math.Log(math.Max(d.Seconds(), 1e-9))
			n++
		}
		res.Mean = append(res.Mean, time.Duration(sum/float64(n)*float64(time.Second)))
		res.GeoMean = append(res.GeoMean, time.Duration(math.Exp(logSum/float64(n))*float64(time.Second)))
	}
	return res, nil
}

// String renders Figure 5.
func (r *Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: aggregate execution time per cumulative technique\n")
	fmt.Fprintf(&b, "%-16s %12s %12s\n", "level", "mean", "geo-mean")
	for i, l := range r.Levels {
		fmt.Fprintf(&b, "%-16s %12s %12s\n", l,
			r.Mean[i].Round(time.Millisecond), r.GeoMean[i].Round(time.Millisecond))
	}
	return b.String()
}

// Fig6Row is the paper's before/after highlight for one technique.
type Fig6Row struct {
	Level  string
	Query  int
	Before time.Duration
	After  time.Duration
}

// Figure6 extracts from Figure 5's per-query data the query that benefits
// the most from each added technique (the paper highlights Q17, Q1, Q5,
// Q18, Q18).
func (r *Fig5Result) Figure6() []Fig6Row {
	var rows []Fig6Row
	for level := 1; level < len(r.Levels); level++ {
		bestQ, bestGain := 0, 0.0
		for qn, times := range r.PerQuery {
			if len(times) <= level {
				continue
			}
			gain := times[level-1].Seconds() - times[level].Seconds()
			if gain > bestGain {
				bestGain = gain
				bestQ = qn
			}
		}
		if bestQ == 0 {
			continue
		}
		rows = append(rows, Fig6Row{
			Level:  r.Levels[level],
			Query:  bestQ,
			Before: r.PerQuery[bestQ][level-1],
			After:  r.PerQuery[bestQ][level],
		})
	}
	return rows
}

// FormatFigure6 renders the rows.
func FormatFigure6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: best-benefiting query per technique\n")
	fmt.Fprintf(&b, "%-16s %-6s %12s %12s %8s\n", "technique", "query", "before", "after", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s Q%-5d %12s %12s %7.1fx\n", r.Level, r.Query,
			r.Before.Round(time.Millisecond), r.After.Round(time.Millisecond),
			r.Before.Seconds()/math.Max(r.After.Seconds(), 1e-9))
	}
	return b.String()
}

// Figure 7: ratio of MONOMI client CPU time to the CPU time of running the
// query on a local plaintext database.

// Fig7Row is one query's client-CPU ratio.
type Fig7Row struct {
	Query     int
	ClientCPU time.Duration
	LocalCPU  time.Duration
}

// Figure7 measures the ratios on the MONOMI bench.
func (s *Suite) Figure7() ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, qn := range tpch.SupportedQueries() {
		plain, err := s.Monomi.RunPlain(qn)
		if err != nil {
			return nil, err
		}
		encRes, err := s.Monomi.RunEncrypted(qn)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7Row{Query: qn, ClientCPU: encRes.ClientTime, LocalCPU: plain.CPUTime})
	}
	return rows, nil
}

// FormatFigure7 renders the ratios.
func FormatFigure7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: client CPU time relative to local plaintext execution\n")
	fmt.Fprintf(&b, "%-6s %12s %12s %8s\n", "query", "client", "local", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%-5d %12s %12s %8.3f\n", r.Query,
			r.ClientCPU.Round(time.Microsecond), r.LocalCPU.Round(time.Microsecond),
			r.ClientCPU.Seconds()/math.Max(r.LocalCPU.Seconds(), 1e-9))
	}
	return b.String()
}
