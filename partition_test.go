package monomi

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Metamorphic partition checks (ternary logic partitioning): for a query Q
// and any predicate p over its tables, the rows of Q are, as a multiset, the
// rows of Q AND p, Q AND NOT p and Q AND (p) IS NULL together. Each
// partition usually runs another plan than Q — on the encrypted path a
// different split, on both paths other implied single-table filters and
// another join order — so the partitions check those against each other
// with no oracle. Every partition runs on the in-process System and on the
// plaintext twin, and both unions must equal the twin's rows of Q.

// partitionSeed seeds the choice of predicates per statement.
const partitionSeed = 20201104

// partitionPreds are the predicates over sales and cats a statement draws
// from: one table's comparisons, NULL tests on cats' NULL names, and ORs
// across both tables, whose single-table parts the engine lends each table.
var partitionPreds = []string{
	"s_qty < 25",
	"s_price >= 480",
	"s_cat IN ('ale', 'cider')",
	"c_tier < 3",
	"c_name IS NULL",
	"c_name = 'bock'",
	"s_qty < c_tier * 6",
	"(c_tier < 2 AND s_qty < 25) OR (c_tier >= 4 AND s_price > 400)",
	"(c_name = 'ale' AND s_price < 300) OR (c_region = 'south' AND s_qty > 10) OR (c_name IS NULL AND s_qty < 5)",
}

// splitWhere cuts a statement into what precedes its top-level WHERE
// condition, the condition, and the clauses that follow it (GROUP BY,
// ORDER BY, LIMIT); ok is false when the statement has no top-level WHERE.
func splitWhere(sql string) (head, cond, tail string, ok bool) {
	depth, where := 0, -1
	upper := strings.ToUpper(sql)
	for i := 0; i < len(sql); i++ {
		switch sql[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ' ':
			if depth != 0 {
				continue
			}
			rest := upper[i:]
			switch {
			case where < 0 && strings.HasPrefix(rest, " WHERE "):
				where = i + len(" WHERE ")
			case where >= 0 && (strings.HasPrefix(rest, " GROUP BY ") || strings.HasPrefix(rest, " ORDER BY ") || strings.HasPrefix(rest, " LIMIT ")):
				return sql[:where], sql[where:i], sql[i:], true
			}
		}
	}
	if where < 0 {
		return "", "", "", false
	}
	return sql[:where], sql[where:], "", true
}

// partitionable reports whether a statement's rows are the union of its
// partitions' rows: no aggregate, DISTINCT or LIMIT folds or cuts them.
func partitionable(sql string) bool {
	head, _, tail, ok := splitWhere(sql)
	if !ok {
		return false
	}
	for _, w := range []string{"SUM(", "COUNT(", "AVG(", "MIN(", "MAX(", "DISTINCT", "GROUP BY", "LIMIT"} {
		if strings.Contains(head, w) || strings.Contains(tail, w) {
			return false
		}
	}
	return true
}

// checkPartitions runs Q's three partitions by p on sys and on plain's
// plaintext twin, and Q on the twin, and reports any union that differs
// from the twin's rows of Q.
func checkPartitions(t *testing.T, sys, plain *System, sql, p string) {
	t.Helper()
	head, cond, tail, ok := splitWhere(sql)
	if !ok {
		t.Fatalf("no WHERE in %s", sql)
	}
	twinQ, err := plain.QueryPlaintext(sql)
	if err != nil {
		t.Fatalf("plaintext %s: %v", sql, err)
	}
	want := canonicalRows(t, twinQ.Data, false)
	var enc, twin [][]any
	for _, part := range []string{"(%s)", "NOT (%s)", "(%s) IS NULL"} {
		psql := fmt.Sprintf("%s(%s) AND %s%s", head, cond, fmt.Sprintf(part, p), tail)
		e, err := sys.Query(psql)
		if err != nil {
			t.Fatalf("encrypted %s: %v", psql, err)
		}
		pl, err := plain.QueryPlaintext(psql)
		if err != nil {
			t.Fatalf("plaintext %s: %v", psql, err)
		}
		enc, twin = append(enc, e.Data...), append(twin, pl.Data...)
	}
	for side, rows := range map[string][][]any{"encrypted": enc, "plaintext": twin} {
		got := canonicalRows(t, rows, false)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s\npartitioned by %s: the %s partitions hold %d rows, the query %d", sql, p, side, len(got), len(want))
		}
	}
}

// servedPartitions returns a System connected over loopback TCP to sys,
// which must be disk-backed with a block cache of cache bytes per table
// smaller than its largest encrypted table, so a partition's scans churn
// the cache and its sargable filters run on sealed pages in place (the
// kernel/residual split: p joins the page predicate, NOT (p) and
// (p) IS NULL stay residual).
func servedPartitions(t *testing.T, sys *System, cache int64) *System {
	t.Helper()
	var largest int64
	for _, name := range sys.dep.DB.Cat.Names() {
		tb, err := sys.dep.DB.Cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if !tb.Paged() {
			t.Fatalf("table %s is not paged", name)
		}
		largest = max(largest, tb.ScanBytes())
	}
	if largest <= cache {
		t.Fatalf("the largest table has %d bytes, the block cache %d", largest, cache)
	}
	srv, err := sys.Serve("127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sys.ConnectRemote(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close(); srv.Close(); sys.Close() })
	return remote
}

// TestPartitionDifferential partitions every differential statement whose
// rows are a union — the generated filters and joins, the breaker and
// join-order shapes — by three seeded predicates over its tables, in
// process and on the disk-backed deployment served over TCP.
func TestPartitionDifferential(t *testing.T) {
	t.Run("in process", func(t *testing.T) {
		sys := diffSystem(t)
		partitionDifferential(t, sys, sys)
	})
	t.Run("served disk", func(t *testing.T) {
		disk := diffSystemBackend(t, "disk")
		partitionDifferential(t, servedPartitions(t, disk, 16<<10), disk)
	})
}

func partitionDifferential(t *testing.T, sys, plain *System) {
	rng := rand.New(rand.NewSource(partitionSeed))
	queries := genQueries(rand.New(rand.NewSource(diffSeed+1)), diffQueries)
	queries = append(queries, genJoinQueries(rand.New(rand.NewSource(diffSeed+3)), 15)...)
	checked := 0
	for _, q := range queries {
		if !partitionable(q.sql) {
			continue
		}
		head, _, _, _ := splitWhere(q.sql)
		from := head[strings.LastIndex(head, " FROM "):]
		if strings.ContainsAny(from, "()") {
			continue // a derived table renames its columns
		}
		var preds []string
		for _, p := range partitionPreds {
			if (strings.Contains(from, "sales") || !strings.Contains(p, "s_")) &&
				(strings.Contains(from, "cats") || !strings.Contains(p, "c_")) {
				preds = append(preds, p)
			}
		}
		for k := 0; k < 3; k++ {
			checkPartitions(t, sys, plain, q.sql, preds[rng.Intn(len(preds))])
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d statements were partitioned", checked)
	}
}

// tpchJoinCores are the join blocks of TPC-H Q7, Q19 and Q21, projected to
// the columns their aggregates read. At smoke scale the official constants
// select no rows, so each core's %s slots take constants from the first row
// of its probe statement; preds are the partition predicates over it: a
// one-table comparison and an OR across the joined tables.
var tpchJoinCores = []struct {
	probe, sql string
	preds      []string
}{
	{`SELECT n1.n_name, n2.n_name FROM supplier, lineitem, orders, customer, nation n1, nation n2
	  WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND c_custkey = o_custkey
	    AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey
	    AND l_shipdate BETWEEN date '1995-01-01' AND date '1996-12-31' ORDER BY l_orderkey, l_linenumber`,
		`SELECT n1.n_name, n2.n_name, l_shipdate, l_extendedprice, l_discount
	  FROM supplier, lineitem, orders, customer, nation n1, nation n2
	  WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND c_custkey = o_custkey
	    AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey
	    AND ((n1.n_name = '%[1]s' AND n2.n_name = '%[2]s') OR (n1.n_name = '%[2]s' AND n2.n_name = '%[1]s'))
	    AND l_shipdate BETWEEN date '1995-01-01' AND date '1996-12-31'`,
		[]string{"l_discount < 5", "(n1.n_name = n2.n_name AND l_quantity < 20) OR (o_orderpriority = '1-URGENT' AND l_tax > 2)"}},
	{`SELECT p_brand, p_container FROM lineitem, part
	  WHERE p_partkey = l_partkey AND l_quantity <= 30 AND p_size <= 15
	    AND l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = 'DELIVER IN PERSON' ORDER BY l_orderkey, l_linenumber`,
		`SELECT l_extendedprice, l_discount
	  FROM lineitem, part
	  WHERE p_partkey = l_partkey
	    AND ((p_brand = '%[1]s' AND p_container IN ('%[2]s', 'SM BOX', 'SM PACK', 'SM PKG')
	          AND l_quantity >= 1 AND l_quantity <= 11 AND p_size BETWEEN 1 AND 5
	          AND l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = 'DELIVER IN PERSON')
	      OR (p_brand = '%[1]s' AND p_container IN ('MED BAG', '%[2]s', 'MED PKG', 'MED PACK')
	          AND l_quantity >= 10 AND l_quantity <= 20 AND p_size BETWEEN 1 AND 10
	          AND l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = 'DELIVER IN PERSON')
	      OR (p_brand = '%[1]s' AND p_container IN ('LG CASE', 'LG BOX', '%[2]s', 'LG PKG')
	          AND l_quantity >= 20 AND l_quantity <= 30 AND p_size BETWEEN 1 AND 15
	          AND l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = 'DELIVER IN PERSON'))`,
		[]string{"l_quantity < 15", "(p_size < 4 AND l_quantity > 5) OR (p_retailprice > 1000 AND l_discount > 3)"}},
	{`SELECT n_name FROM supplier, lineitem l1, orders, nation
	  WHERE s_suppkey = l1.l_suppkey AND o_orderkey = l1.l_orderkey AND o_orderstatus = 'F'
	    AND l1.l_receiptdate > l1.l_commitdate AND s_nationkey = n_nationkey ORDER BY l1.l_orderkey, l1.l_linenumber`,
		`SELECT s_name
	  FROM supplier, lineitem l1, orders, nation
	  WHERE s_suppkey = l1.l_suppkey AND o_orderkey = l1.l_orderkey
	    AND o_orderstatus = 'F' AND l1.l_receiptdate > l1.l_commitdate
	    AND EXISTS (SELECT 1 FROM lineitem l2 WHERE l2.l_orderkey = l1.l_orderkey AND l2.l_suppkey <> l1.l_suppkey)
	    AND NOT EXISTS (SELECT 1 FROM lineitem l3 WHERE l3.l_orderkey = l1.l_orderkey
	      AND l3.l_suppkey <> l1.l_suppkey AND l3.l_receiptdate > l3.l_commitdate)
	    AND s_nationkey = n_nationkey AND n_name = '%[1]s'`,
		[]string{"l1.l_quantity < 25", "(s_acctbal > 0 AND l1.l_quantity > 10) OR (o_orderpriority = '1-URGENT' AND n_regionkey < 3)"}},
}

// TestPartitionTPCHJoins partitions the join blocks of TPC-H Q7, Q19 and Q21
// at smoke scale, where implied filters and the estimated join order do
// their work: in process, and on disk segments of 4 KiB pages behind a
// 32 KiB block cache served over TCP.
func TestPartitionTPCHJoins(t *testing.T) {
	if testing.Short() {
		t.Skip("encrypts TPC-H")
	}
	db, err := TPCH(0.0005, 1)
	if err != nil {
		t.Fatal(err)
	}
	wl := Workload{}
	for _, n := range TPCHQueries() {
		wl[fmt.Sprintf("Q%02d", n)] = mustTPCH(n)
	}
	encrypt := func(backend string) *System {
		opts := DefaultOptions()
		opts.PaillierBits = 256
		if backend == "disk" {
			opts.Backend, opts.DataDir = backend, t.TempDir()
			opts.pageBytes, opts.BlockCacheBytes = 4096, 32<<10
		}
		sys, err := Encrypt(db, wl, opts)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	t.Run("in process", func(t *testing.T) {
		sys := encrypt("")
		defer sys.Close()
		partitionTPCHJoins(t, sys, sys)
	})
	t.Run("served disk", func(t *testing.T) {
		disk := encrypt("disk")
		partitionTPCHJoins(t, servedPartitions(t, disk, 32<<10), disk)
	})
}

func partitionTPCHJoins(t *testing.T, sys, plain *System) {
	for _, c := range tpchJoinCores {
		probe, err := plain.QueryPlaintext(c.probe)
		if err != nil {
			t.Fatal(err)
		}
		if len(probe.Data) == 0 {
			t.Fatalf("no rows at smoke scale: %s", c.probe)
		}
		sql := fmt.Sprintf(c.sql, probe.Data[0]...)
		if q, err := plain.QueryPlaintext(sql); err != nil || len(q.Data) == 0 {
			t.Fatalf("%s: %v, or no rows", sql, err)
		}
		for _, p := range c.preds {
			checkPartitions(t, sys, plain, sql, p)
		}
	}
}
