// monomi-designer runs the physical database designer (§6) over the TPC-H
// workload and prints the chosen encrypted design, its ILP statistics, and
// the per-query plan costs — the setup-phase tool of Figure 1.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"repro/internal/deploy"
	"repro/internal/designer"
	"repro/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.002, "TPC-H scale factor (data sample for statistics)")
	seed := flag.Int64("seed", 1, "generator seed")
	budget := flag.Float64("s", 2.0, "space budget factor S (0 = unconstrained)")
	spaceGreedy := flag.Bool("space-greedy", false, "use the Space-Greedy heuristic instead of the ILP")
	bits := flag.Int("paillier", 512, "Paillier modulus bits")
	flag.Parse()

	cat, err := tpch.Generate(tpch.ScaleFactor(*sf), *seed)
	if err != nil {
		log.Fatal(err)
	}
	labeled := map[string]string{}
	for _, qn := range tpch.SupportedQueries() {
		labeled[fmt.Sprintf("Q%02d", qn)] = tpch.Queries[qn]
	}
	opts := designer.MonomiOptions()
	opts.SpaceBudget = *budget
	opts.SpaceGreedy = *spaceGreedy
	res, err := deploy.Design(cat, labeled, deploy.Spec{
		MasterKey: []byte("monomi-designer"), PaillierBits: *bits, Designer: opts,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Designer finished in %s: %d ILP variables, %d constraints, %d B&B nodes\n",
		res.Elapsed.Round(1e6), res.Vars, res.Constraints, res.Nodes)
	fmt.Printf("Plaintext %0.f B; estimated encrypted footprint %.0f B (%.2fx)\n\n",
		res.PlainBytes, res.EstBytes, res.EstBytes/res.PlainBytes)

	fmt.Println("Per-query plan choices (BestSet items beyond the DET baseline):")
	for _, info := range res.PerQuery {
		fmt.Printf("  %-4s est %8.3fs  (%d candidates)", info.Label, info.EstCost, info.NumCands)
		if len(info.Items) > 0 {
			fmt.Printf("  items:")
			for _, it := range info.Items {
				fmt.Printf(" %s(%s)", it.ColumnName(), it.Scheme)
			}
		}
		fmt.Println()
	}

	fmt.Println("\nPhysical design:")
	byTable := map[string][]string{}
	for _, it := range res.Design.Items {
		pre := ""
		if it.IsPrecomputed() {
			pre = " [precomputed: " + it.ExprSQL() + "]"
		}
		byTable[it.Table] = append(byTable[it.Table], fmt.Sprintf("%-28s %s%s", it.ColumnName(), it.Scheme, pre))
	}
	var tables []string
	for t := range byTable {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		fmt.Printf("  %s:\n", t)
		sort.Strings(byTable[t])
		for _, line := range byTable[t] {
			fmt.Printf("    %s\n", line)
		}
	}
}
