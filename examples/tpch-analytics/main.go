// tpch-analytics: run a selection of TPC-H queries over an encrypted
// warehouse and compare against the plaintext baseline — the core scenario
// of the paper's evaluation (§8.2).
package main

import (
	"flag"
	"fmt"
	"log"

	monomi "repro"
)

func main() {
	sf := flag.Float64("sf", 0.002, "TPC-H scale factor (1.0 = 6M lineitem rows)")
	bits := flag.Int("paillier", 512, "Paillier modulus bits (paper: 1024)")
	flag.Parse()

	fmt.Printf("Generating TPC-H at SF %g...\n", *sf)
	db, err := monomi.TPCH(*sf, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Hand the full supported workload to the designer, as in §8.2.
	workload := monomi.Workload{}
	for _, qn := range monomi.TPCHQueries() {
		q, _ := monomi.TPCHQuery(qn)
		workload[fmt.Sprintf("Q%02d", qn)] = q
	}
	opts := monomi.DefaultOptions()
	opts.PaillierBits = *bits
	fmt.Println("Running designer (ILP, S=2) and encrypting...")
	sys, err := monomi.Encrypt(db, workload, opts)
	if err != nil {
		log.Fatal(err)
	}
	vars, cons, plain, encBytes := sys.DesignStats()
	fmt.Printf("Designer ILP: %d variables, %d constraints; space %.2fx plaintext\n\n",
		vars, cons, float64(encBytes)/float64(plain))

	fmt.Printf("%-5s %12s %12s %9s %10s %10s\n",
		"query", "plaintext", "encrypted", "slowdown", "client", "wire KB")
	for _, qn := range []int{1, 3, 5, 6, 11, 12, 14, 18, 19} {
		sql, _ := monomi.TPCHQuery(qn)
		p, err := sys.QueryPlaintext(sql)
		if err != nil {
			log.Fatalf("Q%d plaintext: %v", qn, err)
		}
		e, err := sys.Query(sql)
		if err != nil {
			log.Fatalf("Q%d encrypted: %v", qn, err)
		}
		fmt.Printf("Q%-4d %11.3fs %11.3fs %8.2fx %9.3fs %10.1f\n",
			qn, p.Total(), e.Total(), e.Total()/p.Total(),
			e.ClientTime, float64(e.WireBytes)/1024)
	}
	fmt.Println("\n(Measured wall time in this process; the paper's Figure 4 models a disk and a 10 Mbit/s link: go run ./cmd/monomi-bench -exp fig4.)")
}
