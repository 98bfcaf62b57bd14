package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/deploy"
	"repro/internal/sqlparser"
	"repro/internal/tpch"
)

// Figure 8: designer sensitivity to the input workload. The paper
// enumerates all n-choose-k query subsets and picks the one whose design
// minimizes the cost estimate over the full workload; we use greedy forward
// selection (k=1 best, then the best addition, ...), which finds the same
// kind of representative queries at a fraction of the planning effort —
// the deviation is documented in EXPERIMENTS.md.

// Fig8Row is one k's outcome.
type Fig8Row struct {
	K        int
	Chosen   []int
	Estimate float64       // designer cost estimate over all 19 queries
	Runtime  time.Duration // measured total workload runtime
}

// Fig8Result is the full sensitivity sweep.
type Fig8Result struct {
	Rows []Fig8Row
}

// fig8Config is the MONOMI configuration Figure 8 designs from a query
// subset: unconstrained space, as in the paper's §8.5. An empty subset still
// runs the designer, which then returns the baseline-only design.
func fig8Config(base Config, subset []int) Config {
	cfg := base.under(MonomiConfig(base.SF))
	cfg.Designer.SpaceBudget = 0
	cfg.Queries = append([]int{}, subset...)
	return cfg
}

// Figure8 runs the sweep for k = 0..maxK plus k = all: EstimateSweep picks
// the subsets and costs them, then each row's design is built and the full
// workload measured on it. Both columns come from one assembler spec, so
// they are costed under one cost model at every Paillier width.
func Figure8(base Config, maxK int) (*Fig8Result, error) {
	rows, err := EstimateSweep(base, maxK)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		b, err := Setup(fig8Config(base, rows[i].Chosen))
		if err != nil {
			return nil, err
		}
		for _, qn := range tpch.SupportedQueries() {
			r, err := b.RunEncrypted(qn)
			if err != nil {
				return nil, fmt.Errorf("Q%d: %w", qn, err)
			}
			rows[i].Runtime += r.Total()
		}
	}
	return &Fig8Result{Rows: rows}, nil
}

// EstimateSweep is Figure 8's designer-side half: greedy forward selection
// of the best k input queries by full-workload cost estimate, without
// building the encrypted systems (Figure8 adds the measurement half).
// Used on its own by the benchmark harness, where repeated full system
// builds exceed modest memory limits.
func EstimateSweep(base Config, maxK int) ([]Fig8Row, error) {
	all := tpch.SupportedQueries()
	// The design half only reads the catalog, so one serves every estimate.
	cat, err := tpch.Generate(base.SF, base.Seed)
	if err != nil {
		return nil, err
	}
	// estimate runs the assembler's design half on the subset (no
	// encryption) and sums the §6.4 cost of the best plan for every workload
	// query under that design.
	estimate := func(subset []int) (float64, error) {
		cfg := fig8Config(base, subset)
		dres, err := deploy.Design(cat, cfg.workload(), cfg.spec())
		if err != nil {
			return 0, err
		}
		total := 0.0
		for _, qn := range all {
			q, err := sqlparser.Parse(tpch.Queries[qn])
			if err != nil {
				return 0, err
			}
			prepared, _, err := dres.Context.Prepare(q, nil)
			if err != nil {
				return 0, err
			}
			plan, err := dres.Context.BestPlan(prepared)
			if err != nil {
				return 0, err
			}
			total += plan.EstTotal()
		}
		return total, nil
	}
	var chosen []int
	var rows []Fig8Row
	for k := 0; k <= maxK; k++ {
		if k > 0 {
			bestQ, bestEst := -1, math.Inf(1)
			for _, qn := range all {
				if slices.Contains(chosen, qn) {
					continue
				}
				est, err := estimate(append(append([]int{}, chosen...), qn))
				if err != nil {
					continue
				}
				if est < bestEst {
					bestEst = est
					bestQ = qn
				}
			}
			if bestQ < 0 {
				return nil, fmt.Errorf("estimate sweep: no feasible addition at k=%d", k)
			}
			chosen = append(chosen, bestQ)
		}
		est, err := estimate(chosen)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{K: k, Chosen: append([]int{}, chosen...), Estimate: est})
	}
	est, err := estimate(all)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig8Row{K: len(all), Chosen: all, Estimate: est})
	return rows, nil
}

// String renders Figure 8.
func (r *Fig8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: designer quality with the best k input queries\n")
	fmt.Fprintf(&b, "%-4s %-24s %14s %14s\n", "k", "chosen", "cost estimate", "total runtime")
	for _, row := range r.Rows {
		names := make([]string, len(row.Chosen))
		for i, q := range row.Chosen {
			names[i] = fmt.Sprintf("Q%d", q)
		}
		label := strings.Join(names, ",")
		if len(label) > 24 {
			label = label[:21] + "..."
		}
		fmt.Fprintf(&b, "%-4d %-24s %14.2f %14s\n", row.K, label, row.Estimate,
			row.Runtime.Round(time.Millisecond))
	}
	return b.String()
}
