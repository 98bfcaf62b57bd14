// monomi-bench reruns the paper's evaluation (§8): every figure and table
// over the TPC-H substrate.
//
// Usage:
//
//	monomi-bench -exp fig4            # Figure 4: per-query slowdowns
//	monomi-bench -exp fig5            # Figure 5/6: cumulative techniques
//	monomi-bench -exp fig7            # Figure 7: client CPU ratio
//	monomi-bench -exp fig8            # Figure 8: designer input sensitivity
//	monomi-bench -exp fig9            # Figure 9: space budgets
//	monomi-bench -exp table2          # Table 2: server space
//	monomi-bench -exp table3          # Table 3: security census
//	monomi-bench -exp all
//
// The experiments measure the paper's full-scan system. The end-to-end
// workloads (scans, subqueries, the served disk-backed deployment, the
// prepared hot path over index probes) live in `go run ./bench`.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/tpch"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig4|fig5|fig7|fig8|fig9|table2|table3|stats|all")
	sf := flag.Float64("sf", 0.002, "TPC-H scale factor")
	seed := flag.Int64("seed", 1, "data generator seed")
	bits := flag.Int("paillier", 512, "Paillier modulus bits (paper: 1024)")
	maxK := flag.Int("maxk", 4, "maximum designer subset size for fig8")
	flag.Parse()

	base := experiments.Config{
		SF: tpch.ScaleFactor(*sf), Seed: *seed, PaillierBits: *bits,
	}
	needSuite := map[string]bool{"fig4": true, "fig7": true, "table2": true, "table3": true, "stats": true, "all": true}

	var suite *experiments.Suite
	if needSuite[*exp] {
		fmt.Fprintf(os.Stderr, "setting up CryptDB+Client / Execution-Greedy / MONOMI at SF %g...\n", *sf)
		var err error
		suite, err = experiments.NewSuite(base)
		if err != nil {
			log.Fatal(err)
		}
	}

	run := func(name string) {
		switch name {
		case "fig4":
			fig, err := suite.Figure4()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(fig.String())
		case "fig5":
			fig, err := experiments.Figure5(base)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(fig.String())
			fmt.Println(experiments.FormatFigure6(fig.Figure6()))
		case "fig7":
			rows, err := suite.Figure7()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(experiments.FormatFigure7(rows))
		case "fig8":
			fig, err := experiments.Figure8(base, *maxK)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(fig.String())
		case "fig9":
			fig, err := experiments.Figure9(base)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(fig.String())
		case "table2":
			fmt.Println(experiments.FormatTable2(suite.Table2()))
		case "table3":
			rows := experiments.Table3(suite.Monomi.Design.Design)
			fmt.Println(experiments.FormatTable3(rows))
			summary, _ := experiments.SecuritySummary(rows)
			fmt.Println(summary)
		case "stats":
			fmt.Println(suite.Stats().String())
		default:
			log.Fatalf("unknown experiment %q", name)
		}
	}

	if *exp == "all" {
		for _, name := range []string{"fig4", "table2", "table3", "stats", "fig7", "fig9", "fig5", "fig8"} {
			fmt.Printf("==== %s ====\n", name)
			run(name)
		}
	} else {
		run(*exp)
	}
}
