package client

import (
	"testing"
)

// End-to-end tests of the remote-built client: the full split-execution path
// over the framed stream — server framing encrypted batches mid-scan, client
// decrypting them on concurrent workers — must agree with the plaintext
// engine on every scheme (DET, OPE, HOM packing, SEARCH, GROUP_CONCAT
// folds) and plan shape (pushed filters, joins with multiple remote parts,
// grouped aggregation). Run under -race in CI, this is also the thread
//-safety proof for the per-worker decoder clones and the shared pack cache.

// remoteQueries exercises every decode mode the wire can carry.
var remoteQueries = []string{
	`SELECT o_id, o_cust FROM orders WHERE o_total > 100`,
	`SELECT o_id FROM orders WHERE o_cust = 'alice'`,
	`SELECT o_cust, SUM(o_total) AS s FROM orders GROUP BY o_cust ORDER BY s DESC`,
	`SELECT o_cust, SUM(i_price * i_qty) AS v
	   FROM orders, items WHERE o_id = i_order GROUP BY o_cust ORDER BY v DESC`,
	`SELECT i_order FROM items WHERE i_tag LIKE '%widget%'`,
	`SELECT SUM(CASE WHEN o_cust = 'alice' THEN o_total ELSE 0 END), SUM(o_total) FROM orders`,
	`SELECT extract(year from o_date) AS y, COUNT(*) FROM orders
	   GROUP BY extract(year from o_date) ORDER BY y`,
	`SELECT o_id, o_total FROM orders ORDER BY o_total DESC LIMIT 3`,
	`SELECT COUNT(*) FROM orders WHERE o_date < date '1996-06-01'`,
}

func TestRemoteClientMatchesPlaintext(t *testing.T) {
	f := newFixture(t)
	r := f.remote(nil)
	for _, p := range []int{1, 4} {
		r.client.Parallelism = p
		for _, bs := range []int{0, 2} {
			f.client.Srv.SetBatchSize(bs)
			for _, sql := range remoteQueries {
				res := r.checkQuery(t, sql, nil)
				if res.WireBytes <= 0 {
					t.Errorf("p=%d bs=%d %s: no wire bytes accounted", p, bs, sql)
				}
			}
		}
	}
}

// TestRemoteResultsIdenticalToInProcess pins the two hand-offs against each
// other, as two clients over one server: same rows, same order, same server
// charge.
func TestRemoteResultsIdenticalToInProcess(t *testing.T) {
	f := newFixture(t)
	r := f.remote(nil)
	f.client.Parallelism, r.client.Parallelism = 2, 2
	f.client.Srv.SetBatchSize(2)
	for _, sql := range remoteQueries {
		want, err := f.client.Query(sql, nil)
		if err != nil {
			t.Fatalf("in-process %s: %v", sql, err)
		}
		got, err := r.client.Query(sql, nil)
		if err != nil {
			t.Fatalf("streamed %s: %v", sql, err)
		}
		w := canonicalRows(want.Rows, true)
		g := canonicalRows(got.Rows, true)
		if len(w) != len(g) {
			t.Fatalf("%s: streamed %d rows, in-process %d", sql, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Errorf("%s row %d: streamed %s, in-process %s", sql, i, g[i], w[i])
			}
		}
		// ServerTime equality is asserted over a real socket for UDF-free
		// queries (root TestNetworkServerTimeFromCounts); here UDF nanos are
		// measured wall time and legitimately differ between the two
		// executions.
		if got.ServerTime <= 0 {
			t.Errorf("%s: streamed ServerTime not charged", sql)
		}
	}
}
