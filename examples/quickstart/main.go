// Quickstart: build a tiny plaintext database, let the designer choose an
// encrypted physical design for a two-query workload, encrypt, and run an
// analytical query end to end through split client/server execution.
package main

import (
	"fmt"
	"log"

	monomi "repro"
)

func main() {
	// 1. Plaintext database (trusted side).
	db := monomi.NewDatabase()
	db.MustCreateTable("orders",
		monomi.Col("o_id", monomi.Int),
		monomi.Col("o_cust", monomi.String),
		monomi.Col("o_total", monomi.Int),
		monomi.Col("o_date", monomi.Date))
	seed := []struct {
		id    int
		cust  string
		total int
		date  string
	}{
		{1, "alice", 120, "1995-01-15"}, {2, "bob", 80, "1995-06-01"},
		{3, "alice", 300, "1996-02-20"}, {4, "carol", 50, "1996-07-04"},
		{5, "bob", 220, "1996-09-12"}, {6, "alice", 90, "1997-03-01"},
	}
	for _, r := range seed {
		db.MustInsert("orders", r.id, r.cust, r.total, r.date)
	}

	// 2. Designer: the workload tells it which operations must run on the
	// untrusted server (equality/grouping -> DET, ranges -> OPE, sums ->
	// Paillier), so it materializes exactly those encrypted columns.
	opts := monomi.DefaultOptions()
	opts.PaillierBits = 512 // quick demo; the paper uses 1024
	opts.Parallelism = 0    // sharded execution across all cores (1 = sequential)
	opts.BatchSize = 1024   // move 1024 rows per pull (0 = unbounded batches)
	sys, err := monomi.Encrypt(db, monomi.Workload{
		"customer-totals": "SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust",
		"big-orders":      "SELECT o_id FROM orders WHERE o_total > 100",
	}, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Chosen physical design:")
	for _, c := range sys.Design() {
		pre := ""
		if c.Precompute {
			pre = " (precomputed)"
		}
		fmt.Printf("  %-8s %-30s %s%s\n", c.Table, c.Expr, c.Scheme, pre)
	}
	_, _, plain, encBytes := sys.DesignStats()
	fmt.Printf("Space: plaintext %d B -> encrypted %d B (%.2fx)\n\n",
		plain, encBytes, float64(encBytes)/float64(plain))

	// 3. Query over ciphertext. The plan shows the split: RemoteSQL runs
	// on the untrusted server, Local operators on the trusted client.
	sql := `SELECT o_cust, SUM(o_total) AS total FROM orders
	        WHERE o_date >= date '1995-06-01' GROUP BY o_cust
	        HAVING SUM(o_total) > 100 ORDER BY total DESC`
	rows, err := sys.Query(sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Split execution plan:")
	fmt.Println(rows.PlanText)
	fmt.Println("Results:")
	for _, r := range rows.Data {
		fmt.Printf("  %-8v %v\n", r[0], r[1])
	}
	fmt.Printf("\nSimulated latency: server %.3fs + network %.3fs + client %.3fs (wire %d B)\n",
		rows.ServerTime, rows.TransferTime, rows.ClientTime, rows.WireBytes)

	// Sanity: identical to the plaintext baseline.
	plainRows, err := sys.QueryPlaintext(sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Plaintext baseline returns %d identical rows.\n", len(plainRows.Data))
}
