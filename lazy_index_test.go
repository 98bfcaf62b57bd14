package monomi

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
)

// forceIndexes builds every index cat's tables declare.
func forceIndexes(t *testing.T, cat *storage.Catalog) {
	t.Helper()
	for _, name := range cat.Names() {
		tbl, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range tbl.Schema.Cols {
			for _, kind := range []storage.IndexKind{storage.HashIndex, storage.OrderedIndex} {
				if _, err := tbl.Index(col.Name, kind); err != nil {
					t.Fatal(err)
				}
			}
		}
		if declared, built := tbl.IndexCounts(); declared != built {
			t.Fatalf("%s: %d of %d declared indexes built", name, built, declared)
		}
	}
}

// TestLazyIndexInvariance: a deployment whose indexes are built by the
// queries that first read them answers all 19 TPC-H queries — rows, plan,
// wire bytes, index probes and the rows they skip, encrypted and plaintext —
// exactly as one whose declared indexes were all built before the first
// query. Only indexes that some query reads get built.
func TestLazyIndexInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two TPC-H deployments")
	}
	workload := Workload{}
	for _, qn := range TPCHQueries() {
		workload[fmt.Sprintf("Q%02d", qn)] = mustTPCH(qn)
	}
	deploy := func(force bool) *System {
		db, err := TPCH(0.001, 1)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := Encrypt(db, workload, diffOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, cat := range []*storage.Catalog{sys.dep.DB.Cat, sys.dep.Plain} {
			if declared, built := cat.IndexCounts(); declared == 0 || built != 0 {
				t.Fatalf("after Encrypt: %d of %d declared indexes built, want none", built, declared)
			}
			if force {
				forceIndexes(t, cat)
			}
		}
		return sys
	}
	lazy, forced := deploy(false), deploy(true)
	defer lazy.Close()
	defer forced.Close()

	// run answers one query both ways and renders what must not differ.
	run := func(sys *System, sql string) string {
		lk, sk := sys.Stats().IndexLookups, sys.Stats().RowsSkippedByIndex
		plk, psk := sys.dep.Engine.IndexStats()
		rows, err := sys.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := sys.QueryPlaintext(sql)
		if err != nil {
			t.Fatal(err)
		}
		st := sys.Stats()
		plk2, psk2 := sys.dep.Engine.IndexStats()
		return fmt.Sprintf("rows\n%s\nplaintext\n%s\nplan\n%s\nwire %d, index lookups %d, rows skipped %d; plaintext %d, %d",
			strings.Join(canonicalRows(t, rows.Data, true), "\n"), strings.Join(canonicalRows(t, plain.Data, true), "\n"),
			rows.PlanText, rows.WireBytes, st.IndexLookups-lk, st.RowsSkippedByIndex-sk, plk2-plk, psk2-psk)
	}
	probed := false
	for _, qn := range TPCHQueries() {
		sql := mustTPCH(qn)
		got, want := run(lazy, sql), run(forced, sql)
		if got != want {
			t.Errorf("Q%d: lazily built indexes answer\n%s\nprebuilt ones\n%s", qn, got, want)
		}
		probed = probed || !strings.HasSuffix(got, "index lookups 0, rows skipped 0; plaintext 0, 0")
	}
	if !probed {
		t.Fatal("no query probed an index")
	}
	for side, cat := range map[string]*storage.Catalog{"encrypted": lazy.dep.DB.Cat, "plaintext": lazy.dep.Plain} {
		declared, built := cat.IndexCounts()
		if built == 0 || built >= declared {
			t.Errorf("%s: the 19 queries built %d of %d declared indexes, want some but not all", side, built, declared)
		}
		t.Logf("%s: %d of %d declared indexes built", side, built, declared)
	}
}
