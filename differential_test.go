package monomi

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/deploy"
)

// Differential property test: a seeded random query generator runs the same
// queries through the plaintext engine and the encrypted split-execution
// path and requires identical results. The Systems here are in process, so
// results are handed over as rows; the framed stream a remote client
// consumes is crossed with the same queries in differential_net_test.go and
// differential_backend_test.go. Results do not depend on the worker count
// (differential_procs_test.go runs every statement at GOMAXPROCS 1, 2 and
// 4); morsel seams, small batches and batch boundaries are the engine's own
// sweep (internal/engine tree_test.go, stream_morsel_test.go).

const (
	diffRows    = 260
	diffQueries = 24 // random queries per template set
	diffSeed    = 20130826
)

// diffSystem builds sales(s_id, s_cat, s_qty, s_price, s_date) — plus
// cats(c_name, c_region, c_tier), a dimension table joining on s_cat =
// c_name with duplicate and NULL join keys — with seeded random rows, and
// encrypts them under a workload broad enough that the designer
// materializes DET, OPE, and HOM columns and a shared-key DET join group
// for the join columns.
func diffSystem(t testing.TB) *System {
	t.Helper()
	return diffSystemBackend(t, "")
}

// diffSystemBackend is diffSystem with an explicit storage backend for the
// encrypted tables ("" = in-memory). The disk variant uses small pages and
// a block cache much smaller than the encrypted tables, so the grid runs
// with real page churn, not an all-resident cache.
func diffSystemBackend(t testing.TB, backend string) *System {
	t.Helper()
	opts := diffOptions()
	if backend != "" {
		opts.Backend = backend
		opts.DataDir = t.TempDir()
		opts.pageBytes = 1024
		opts.BlockCacheBytes = 16 << 10
	}
	sys, err := Encrypt(diffDatabase(), diffWorkload, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// diffOptions are the grid's encryption options: fast keys, no space budget.
func diffOptions() Options {
	opts := DefaultOptions()
	opts.PaillierBits = 256 // fast tests
	opts.SpaceBudget = 0    // unconstrained: materialize what the workload wants
	return opts
}

// diffWorkload is broad enough that the designer materializes DET, OPE and
// HOM columns and a shared-key DET join group for the join columns.
var diffWorkload = Workload{
	"sum_by_cat": "SELECT s_cat, SUM(s_price), SUM(s_qty), COUNT(*) FROM sales GROUP BY s_cat",
	"filter_ope": "SELECT s_id, s_price FROM sales WHERE s_qty < 10 AND s_price > 500",
	"date_range": "SELECT SUM(s_price) FROM sales WHERE s_date < date '1997-01-01'",
	"cat_eq":     "SELECT COUNT(*) FROM sales WHERE s_cat = 'ale'",
	"minmax":     "SELECT s_cat, MIN(s_price), MAX(s_price), AVG(s_qty) FROM sales GROUP BY s_cat",
	"join_cat":   "SELECT s_id, c_region, c_tier FROM sales, cats WHERE s_cat = c_name AND c_tier < 4",
}

// diffDatabase builds the grid's seeded plaintext tables; every call
// returns the same rows.
func diffDatabase() *Database {
	rng := rand.New(rand.NewSource(diffSeed))
	db := NewDatabase()
	db.MustCreateTable("sales",
		Col("s_id", Int), Col("s_cat", String), Col("s_qty", Int),
		Col("s_price", Int), Col("s_date", Date))
	cats := []string{"ale", "bock", "cider", "dubbel", "export"}
	for i := 0; i < diffRows; i++ {
		date := fmt.Sprintf("19%02d-%02d-%02d", 95+rng.Intn(4), 1+rng.Intn(12), 1+rng.Intn(28))
		db.MustInsert("sales", i, cats[rng.Intn(len(cats))], int(rng.Int63n(50)),
			int(rng.Int63n(1000)), date)
	}
	db.MustCreateTable("cats",
		Col("c_name", String), Col("c_region", String), Col("c_tier", Int))
	regions := []string{"north", "south", "east"}
	tier := 0
	for _, name := range cats {
		// 1–2 rows per category: duplicate build-side keys multiply probe
		// matches.
		for k := 0; k <= tier%2; k++ {
			db.MustInsert("cats", name, regions[tier%len(regions)], tier)
			tier++
		}
	}
	// NULL join keys must match nothing.
	db.MustInsert("cats", nil, "nowhere", tier)
	db.MustInsert("cats", nil, "nowhere", tier+1)
	// An all-NULL group: the void region's one row has neither a name nor
	// a tier (nullAggShapes).
	db.MustInsert("cats", nil, "void", nil)
	return db
}

// diffQuery is one generated query plus whether its ORDER BY imposes a
// total order (making row order part of the contract).
type diffQuery struct {
	sql     string
	ordered bool
}

// breakerShapes are the blocks whose trees run through a child tree or a
// pipeline breaker other than grouping: uncorrelated and correlated
// IN / EXISTS / scalar subqueries, a derived table, and a multi-key sort
// with no LIMIT. genQueries appends them to every generated list, so they
// meet shard seams, both hand-offs and both backends.
var breakerShapes = []diffQuery{
	{"SELECT s_id, s_price FROM sales WHERE s_cat IN (SELECT c_name FROM cats WHERE c_tier < 3) ORDER BY s_id", true},
	{"SELECT c_tier, c_region FROM cats WHERE c_tier IN (SELECT s_qty FROM sales WHERE s_cat = c_name) ORDER BY c_tier", true},
	{"SELECT c_tier, c_region FROM cats WHERE EXISTS (SELECT 1 FROM sales WHERE s_qty < 12 AND s_price > 600) ORDER BY c_tier", true},
	{"SELECT c_tier, c_region FROM cats WHERE EXISTS (SELECT 1 FROM sales WHERE s_cat = c_name AND s_qty < 3) ORDER BY c_tier", true},
	{"SELECT s_id, s_price FROM sales WHERE s_qty = (SELECT MAX(s_qty) FROM sales) ORDER BY s_id", true},
	{"SELECT c_tier, c_region FROM cats WHERE c_tier < (SELECT COUNT(*) FROM sales WHERE s_cat = c_name AND s_qty < 2) ORDER BY c_tier", true},
	{"SELECT cat, total FROM (SELECT s_cat AS cat, SUM(s_price) AS total FROM sales GROUP BY s_cat) t WHERE total > 20000 ORDER BY cat", true},
	{"SELECT s_id, s_qty, s_price FROM sales WHERE s_price >= 250 ORDER BY s_qty DESC, s_price, s_id", true},
	// Literals inside GROUP BY / ORDER BY subqueries are hoisted by the plan
	// cache and must be bound back.
	{"SELECT c_name, c_tier FROM cats ORDER BY (SELECT COUNT(*) FROM sales WHERE s_qty < 5 AND s_cat = c_name), c_tier", true},
	{"SELECT c_tier, COUNT(*) FROM cats GROUP BY c_tier, (SELECT COUNT(*) FROM sales WHERE s_qty < 5 AND s_cat = c_name) ORDER BY c_tier", true},
	// Flattening a derived table rewrites only references that name it: not
	// its own WHERE, not a nested block's own column, and once per block.
	{"SELECT d.s_id FROM (SELECT s_id, s_qty AS s_price FROM sales WHERE s_price > 900) d ORDER BY d.s_id", true},
	{"SELECT d.s_id FROM (SELECT s_id, s_price AS c_tier FROM sales) d WHERE EXISTS (SELECT 1 FROM cats WHERE c_tier = 3) ORDER BY d.s_id", true},
	{"SELECT d.s_id FROM (SELECT s_id, s_qty AS s_price, s_price AS s_qty FROM sales) d WHERE d.s_id < 50 AND EXISTS (SELECT 1 FROM cats WHERE c_tier = d.s_qty) ORDER BY d.s_id", true},
	// Three-valued IN: cats' c_tier > 6 rows hold NULL names, c_tier < 5
	// rows none, so the NOT IN forms over the first keep no row.
	{"SELECT s_id FROM sales WHERE s_cat IN (SELECT c_name FROM cats WHERE c_tier > 6) ORDER BY s_id", true},
	{"SELECT s_id FROM sales WHERE s_cat NOT IN (SELECT c_name FROM cats WHERE c_tier > 6) ORDER BY s_id", true},
	{"SELECT s_id FROM sales WHERE NOT (s_cat IN (SELECT c_name FROM cats WHERE c_tier > 6)) ORDER BY s_id", true},
	{"SELECT s_id FROM sales WHERE s_cat NOT IN (SELECT c_name FROM cats WHERE c_tier < 5) ORDER BY s_id", true},
	{"SELECT s_id FROM sales WHERE s_qty NOT IN (1, 2, NULL) ORDER BY s_id", true},
	{"SELECT c_tier FROM cats WHERE c_name NOT IN ('ale', 'bock') ORDER BY c_tier", true},
	// keyFilterShapes, whose subqueries the client evaluates over key-filtered
	// fetches; cats' NULL names are NULL keys.
	keyFilterShapes[0], keyFilterShapes[1], keyFilterShapes[2], keyFilterShapes[3],
}

// nullAggShapes aggregate cats by region, the void region's group holding
// only NULLs, beside groups with values. The server ships c_tier's and
// c_name's ciphertexts per group through GROUP() and the client finishes the
// aggregate: over the all-NULL group SUM, MIN and MAX must be NULL and COUNT
// 0, as in plaintext. The conditional SUM's condition rejects some rows of
// every group, so it is 0 where no row matches; written without ELSE, it is
// NULL there instead.
var nullAggShapes = []diffQuery{
	{"SELECT c_region, SUM(c_tier) FROM cats GROUP BY c_region ORDER BY c_region", true},
	{"SELECT c_region, MIN(c_tier), MAX(c_tier), MIN(c_name), MAX(c_name), COUNT(c_tier), COUNT(c_name) FROM cats GROUP BY c_region ORDER BY c_region", true},
	{"SELECT c_region, SUM(CASE WHEN c_name = 'bock' THEN c_tier ELSE 0 END) FROM cats GROUP BY c_region ORDER BY c_region", true},
	{"SELECT c_region, SUM(CASE WHEN c_name = 'bock' THEN c_tier END) FROM cats GROUP BY c_region ORDER BY c_region", true},
	{"SELECT c_region, SUM(CASE WHEN c_name = 'bock' THEN 1 END) FROM cats GROUP BY c_region ORDER BY c_region", true},
}

// keyFilterShapes restrict a fetched part by another temp table's keys: an
// IN-subquery (cats by one sales category), a correlated EXISTS, NOT EXISTS
// and scalar subquery (sales by the names of cats' south and nowhere rows:
// bock, cider, export and two NULLs). The s_qty arithmetic has no
// encryption, so each subquery runs on the client; the other filters run on
// the server, so each key set names a fraction of its column and is worth
// sending.
var keyFilterShapes = []diffQuery{
	{"SELECT c_tier, c_region FROM cats WHERE c_name IN (SELECT s_cat FROM sales WHERE s_cat = 'bock' AND s_qty * 20 > s_price) ORDER BY c_tier", true},
	{"SELECT c_tier FROM cats WHERE c_region IN ('south', 'nowhere') AND EXISTS (SELECT 1 FROM sales WHERE s_cat = c_name AND s_qty * 20 > s_price) ORDER BY c_tier", true},
	{"SELECT c_tier FROM cats WHERE c_region IN ('south', 'nowhere') AND NOT EXISTS (SELECT 1 FROM sales WHERE s_cat = c_name AND s_qty * 30 > s_price + 600) ORDER BY c_tier", true},
	{"SELECT c_tier, c_region FROM cats WHERE c_region IN ('south', 'nowhere') AND c_tier * 40 < (SELECT SUM(s_qty) FROM sales WHERE s_cat = c_name AND s_qty * 2 > s_price) ORDER BY c_tier", true},
}

// TestDifferentialKeyFilterShapes: each key-filter shape plans a filter and
// sends keys, so the grid above crosses real filtered executions.
func TestDifferentialKeyFilterShapes(t *testing.T) {
	sys := diffSystem(t)
	for _, q := range keyFilterShapes {
		rows, err := sys.Query(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		if !strings.Contains(rows.PlanText, "key filter") || rows.KeyBytes <= 0 {
			t.Errorf("%s: KeyBytes %d, plan:\n%s", q.sql, rows.KeyBytes, rows.PlanText)
		}
	}
}

// derivedScopeQueries are TestDerivedTableScope's statements.
var derivedScopeQueries = []string{
	"SELECT d.s_id, c_tier FROM (SELECT s_id, s_cat FROM sales) d, (SELECT c_name AS s_cat, c_tier FROM cats) e WHERE d.s_cat = e.s_cat ORDER BY d.s_id, c_tier",
	"SELECT d.s_id FROM (SELECT s_id, s_qty AS q FROM sales) d WHERE EXISTS (SELECT 1 FROM sales s2 WHERE s2.s_id = d.s_id + 1 AND s2.s_price < d.q * 20) ORDER BY d.s_id",
	"SELECT d.s_id FROM (SELECT s_id, s_price AS c_tier FROM sales) d WHERE EXISTS (SELECT 1 FROM cats d WHERE d.c_tier = 3) ORDER BY d.s_id",
	"SELECT d.s_id FROM (SELECT s_id, s_qty AS q FROM sales) d WHERE EXISTS (SELECT 1 FROM sales WHERE sales.s_id = d.s_id + 1 AND s_price < d.q * 20) ORDER BY d.s_id",
	"SELECT d.s_id FROM (SELECT s_id, c_tier AS t FROM sales, cats WHERE s_cat = c_name) d WHERE EXISTS (SELECT 1 FROM cats c2 WHERE c2.c_tier = d.t + 1) ORDER BY d.s_id, d.t",
}

// TestDerivedTableScope: derived tables referenced from nested blocks in the
// ways flattening must prove safe or leave to a subplan — a qualified
// reference substituted under another binding of the base table, a nested
// block that re-binds the alias, a base-table name a nested block binds
// again, a multi-table derived table — and two derived tables exporting one
// name match the plaintext engine.
func TestDerivedTableScope(t *testing.T) {
	sys := diffSystem(t)
	for _, sql := range derivedScopeQueries {
		plain, err := sys.QueryPlaintext(sql)
		if err != nil {
			t.Fatalf("plaintext %s: %v", sql, err)
		}
		enc, err := sys.Query(sql)
		if err != nil {
			t.Fatalf("encrypted %s: %v", sql, err)
		}
		want, got := canonicalRows(t, plain.Data, true), canonicalRows(t, enc.Data, true)
		if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: encrypted %d rows, plaintext %d", sql, len(got), len(want))
		}
	}
}

// genQueries derives random filters over the sales schema and splices them
// into aggregate/projection templates covering filters, GROUP BY, ORDER BY,
// and SUM/COUNT/AVG/MIN/MAX, followed by the fixed breakerShapes.
func genQueries(rng *rand.Rand, n int) []diffQuery {
	pred := func() string {
		var conjs []string
		for k := 0; k <= rng.Intn(2); k++ {
			switch rng.Intn(5) {
			case 0:
				conjs = append(conjs, fmt.Sprintf("s_qty < %d", 5+rng.Intn(45)))
			case 1:
				lo := rng.Intn(500)
				conjs = append(conjs, fmt.Sprintf("s_price BETWEEN %d AND %d", lo, lo+100+rng.Intn(500)))
			case 2:
				cats := []string{"ale", "bock", "cider", "dubbel", "export"}
				conjs = append(conjs, fmt.Sprintf("s_cat = '%s'", cats[rng.Intn(len(cats))]))
			case 3:
				conjs = append(conjs, fmt.Sprintf("s_date < date '19%02d-06-15'", 96+rng.Intn(3)))
			default:
				conjs = append(conjs, fmt.Sprintf("s_price >= %d", rng.Intn(900)))
			}
		}
		return strings.Join(conjs, " AND ")
	}
	var out []diffQuery
	for i := 0; i < n; i++ {
		p := pred()
		switch i % 6 {
		case 0:
			out = append(out, diffQuery{fmt.Sprintf(
				"SELECT s_cat, SUM(s_price), COUNT(*) FROM sales WHERE %s GROUP BY s_cat ORDER BY s_cat", p), true})
		case 1:
			out = append(out, diffQuery{fmt.Sprintf(
				"SELECT s_cat, AVG(s_qty) FROM sales WHERE %s GROUP BY s_cat ORDER BY s_cat", p), true})
		case 2:
			out = append(out, diffQuery{fmt.Sprintf(
				"SELECT SUM(s_price), SUM(s_qty) FROM sales WHERE %s", p), false})
		case 3:
			out = append(out, diffQuery{fmt.Sprintf(
				"SELECT s_id, s_price FROM sales WHERE %s ORDER BY s_id", p), true})
		case 4:
			out = append(out, diffQuery{fmt.Sprintf(
				"SELECT COUNT(*) FROM sales WHERE %s", p), false})
		default:
			out = append(out, diffQuery{fmt.Sprintf(
				"SELECT s_cat, MIN(s_price), MAX(s_price) FROM sales WHERE %s GROUP BY s_cat ORDER BY s_cat", p), true})
		}
	}
	out = append(out, breakerShapes...)
	return append(out, nullAggShapes...)
}

// canonicalRows renders result rows for comparison: floats rounded so the
// encrypted path's different evaluation order (a SUM/COUNT split, the
// client summing what the server grouped) cannot flip a last-ulp bit
// against the plaintext twin, unordered results sorted.
func canonicalRows(t *testing.T, data [][]any, ordered bool) []string {
	t.Helper()
	out := make([]string, len(data))
	for i, row := range data {
		parts := make([]string, len(row))
		for j, v := range row {
			if f, ok := v.(float64); ok {
				parts[j] = fmt.Sprintf("%.6g", f)
				if math.IsNaN(f) {
					t.Fatalf("NaN in result row %d", i)
				}
			} else {
				parts[j] = fmt.Sprint(v)
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

func TestDifferentialRandomQueries(t *testing.T) {
	sys := diffSystem(t)
	queries := genQueries(rand.New(rand.NewSource(diffSeed+1)), diffQueries)
	for _, q := range queries {
		plain, err := sys.QueryPlaintext(q.sql)
		if err != nil {
			t.Fatalf("plaintext %s: %v", q.sql, err)
		}
		enc, err := sys.Query(q.sql)
		if err != nil {
			t.Fatalf("encrypted %s: %v", q.sql, err)
		}
		want := canonicalRows(t, plain.Data, q.ordered)
		got := canonicalRows(t, enc.Data, q.ordered)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, plaintext %d", q.sql, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s\nrow %d: encrypted %q, plaintext %q", q.sql, i, got[i], want[i])
			}
		}
	}
}

// genJoinQueries splices random sales filters into multi-table templates:
// equi-join projection with a post-join ORDER BY, join + GROUP BY, join +
// ORDER BY .. LIMIT, cross join, a NULL-sensitive join (the cats table
// carries NULL and duplicate join keys, so every equi-join exercises both),
// and post-join DISTINCT with and without a sort. ORDER BY keys are chosen
// to impose a total order wherever row order is asserted.
func genJoinQueries(rng *rand.Rand, n int) []diffQuery {
	pred := func() string {
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("s_qty < %d", 5+rng.Intn(45))
		case 1:
			return fmt.Sprintf("s_price >= %d", rng.Intn(900))
		case 2:
			return fmt.Sprintf("s_date < date '19%02d-06-15'", 96+rng.Intn(3))
		default:
			return fmt.Sprintf("c_tier < %d", 2+rng.Intn(6))
		}
	}
	var out []diffQuery
	for i := 0; i < n; i++ {
		p := pred()
		switch i % 5 {
		case 0:
			out = append(out, diffQuery{fmt.Sprintf(
				"SELECT s_id, c_region, c_tier FROM sales, cats WHERE s_cat = c_name AND %s ORDER BY s_id, c_tier", p), true})
		case 1:
			out = append(out, diffQuery{fmt.Sprintf(
				"SELECT c_region, SUM(s_price), COUNT(*) FROM sales, cats WHERE s_cat = c_name AND %s GROUP BY c_region ORDER BY c_region", p), true})
		case 2:
			out = append(out, diffQuery{fmt.Sprintf(
				"SELECT s_id, s_price, c_tier FROM sales, cats WHERE s_cat = c_name AND %s ORDER BY s_price DESC, s_id, c_tier LIMIT %d", p, 7+rng.Intn(30)), true})
		case 3:
			// Cross join: no equi-join edge connects the tables.
			out = append(out, diffQuery{fmt.Sprintf(
				"SELECT COUNT(*), SUM(c_tier) FROM sales, cats WHERE %s", p), false})
		default:
			out = append(out, diffQuery{fmt.Sprintf(
				"SELECT s_cat, c_tier FROM sales, cats WHERE s_cat = c_name AND %s AND c_tier >= 0 ORDER BY s_cat, c_tier LIMIT 40", p), true})
		}
	}
	// Post-join DISTINCT: behind a sort, and in first-occurrence order.
	out = append(out,
		diffQuery{fmt.Sprintf(
			"SELECT DISTINCT c_region, s_cat FROM sales, cats WHERE s_cat = c_name AND %s ORDER BY c_region, s_cat", pred()), true},
		diffQuery{fmt.Sprintf(
			"SELECT DISTINCT c_tier, s_qty FROM sales, cats WHERE s_cat = c_name AND %s", pred()), false})
	return append(out, joinOrderShapes...)
}

// joinOrderShapes are the joins the engine reorders or narrows: ORs across
// sales and cats whose single-table parts filter each table before the join
// (among them cats' NULL c_name rows, and a NOT the engine must leave
// alone), and joins whose cheapest start is cats, FROM entry 1 — a filtered
// cats probing the unfiltered sales.
var joinOrderShapes = []diffQuery{
	{"SELECT s_id, c_tier FROM sales, cats WHERE s_cat = c_name AND ((c_region = 'south' AND s_qty < 20) OR (c_tier > 3 AND s_price > 500)) ORDER BY s_id, c_tier", true},
	{"SELECT s_id, c_tier FROM sales, cats WHERE s_qty < c_tier * 5 AND ((c_name = 'ale' AND s_price > 800) OR (c_name IS NULL AND s_qty < 3)) ORDER BY s_id, c_tier", true},
	{"SELECT c_region, COUNT(*), SUM(s_qty) FROM sales, cats WHERE s_cat = c_name AND NOT ((c_tier < 3 AND s_qty < 10) OR (c_tier >= 3 AND s_price < 100)) GROUP BY c_region ORDER BY c_region", true},
	{"SELECT COUNT(*), SUM(s_price) FROM sales, cats WHERE (c_name IS NULL AND s_qty > 45) OR (c_name <> 'bock' AND s_cat = c_name AND s_qty < 2)", false},
	{"SELECT s_id, s_price, c_region FROM sales, cats WHERE s_cat = c_name AND c_tier = 2 ORDER BY s_id", true},
	{"SELECT s_id, c_tier FROM sales, cats WHERE s_cat = c_name AND c_tier < 3", false},
	{"SELECT DISTINCT s_cat, c_region FROM sales, cats WHERE s_cat = c_name AND c_region = 'south'", false},
}

// TestDifferentialJoinQueries runs the multi-table grid: every generated
// join query through the plaintext engine and the encrypted split path —
// the partitioned hash-join build, the probe and cross join, and the
// streamed-probe pipeline.
func TestDifferentialJoinQueries(t *testing.T) {
	sys := diffSystem(t)
	queries := genJoinQueries(rand.New(rand.NewSource(diffSeed+3)), 15)
	for _, q := range queries {
		plain, err := sys.QueryPlaintext(q.sql)
		if err != nil {
			t.Fatalf("plaintext %s: %v", q.sql, err)
		}
		enc, err := sys.Query(q.sql)
		if err != nil {
			t.Fatalf("encrypted %s: %v", q.sql, err)
		}
		want := canonicalRows(t, plain.Data, q.ordered)
		got := canonicalRows(t, enc.Data, q.ordered)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, plaintext %d", q.sql, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s\nrow %d: encrypted %q, plaintext %q", q.sql, i, got[i], want[i])
			}
		}
	}
}

// shardedStreamShapes covers every shape the server's streamed producer can
// take: plain scan, DISTINCT, GROUP BY (incl. Paillier aggregation), join
// probe, ORDER BY … LIMIT, and LIMIT. The network differential runs the
// list over the framed stream, the GOMAXPROCS differential at every worker
// count.
var shardedStreamShapes = []string{
	// plain scan → filter → project (the sharded merger's home shape)
	"SELECT s_id, s_price FROM sales WHERE s_price >= 300",
	// streaming DISTINCT (seen-set emission; server-side and in the
	// client's local residual engine)
	"SELECT DISTINCT s_cat FROM sales WHERE s_qty < 40",
	"SELECT DISTINCT s_cat, s_qty FROM sales WHERE s_price >= 500",
	// grouped emission (Paillier sums finalize batch-at-a-time)
	"SELECT s_cat, SUM(s_price), COUNT(*) FROM sales GROUP BY s_cat",
	"SELECT s_cat, SUM(s_qty) FROM sales WHERE s_price >= 200 GROUP BY s_cat",
	// streamed join probe through the sharded producer
	"SELECT s_id, c_region, c_tier FROM sales, cats WHERE s_cat = c_name AND s_qty < 30",
	// streamed top-N production
	"SELECT s_id, s_price FROM sales WHERE s_qty < 45 ORDER BY s_price DESC, s_id LIMIT 23",
	// LIMIT across sharded producers
	"SELECT s_id FROM sales WHERE s_price >= 100 LIMIT 64",
	"SELECT s_id FROM sales LIMIT 70",
	"SELECT s_id FROM sales LIMIT 0",
}

// indexSubqueryShapes are single-table blocks whose WHERE holds a sargable
// conjunct and a subquery: planned at open like any block, so they reach
// the index access paths (hash probe, ordered range) they used to be kept
// from.
var indexSubqueryShapes = []diffQuery{
	{"SELECT s_id, s_price FROM sales WHERE s_cat = 'bock' AND s_qty = (SELECT MAX(s_qty) FROM sales) ORDER BY s_id", true},
	{"SELECT s_id, s_qty FROM sales WHERE s_price BETWEEN 100 AND 180 AND s_cat IN (SELECT c_name FROM cats WHERE c_tier < 3) ORDER BY s_id", true},
	{"SELECT s_id FROM sales WHERE s_cat = 'ale' AND s_qty < 5 AND EXISTS (SELECT 1 FROM cats WHERE c_name = s_cat AND c_tier < s_qty) ORDER BY s_id", true},
}

// TestDifferentialIndexInvariance is the access-path dimension of the grid:
// the same queries over the same data on a deployment built without
// secondary indexes (every scan reads the whole table, as in the §8
// experiments) and on Encrypt's indexed one (DET hash probes, OPE range
// probes, index-served join builds — whenever the cost rule picks them)
// must be byte-identical, encrypted and plaintext alike. The index-free
// deployment is the baseline.
func TestDifferentialIndexInvariance(t *testing.T) {
	sys := diffSystem(t)
	spec, err := diffOptions().spec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Indexes = false
	dep, err := deploy.Build(diffDatabase().cat, diffWorkload, spec)
	if err != nil {
		t.Fatal(err)
	}
	scan := &System{dep: dep}
	defer scan.Close()
	queries := genQueries(rand.New(rand.NewSource(diffSeed+4)), 12)
	queries = append(queries, genJoinQueries(rand.New(rand.NewSource(diffSeed+5)), 5)...)
	queries = append(queries, indexSubqueryShapes...)
	base := make([][]string, len(queries))
	plainBase := make([][]string, len(queries))
	for i, q := range queries {
		res, err := scan.Query(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		base[i] = canonicalRows(t, res.Data, true)
		p, err := scan.QueryPlaintext(q.sql)
		if err != nil {
			t.Fatalf("plaintext %s: %v", q.sql, err)
		}
		plainBase[i] = canonicalRows(t, p.Data, true)
	}
	if st := scan.Stats(); st.IndexLookups != 0 {
		t.Fatalf("index-free deployment charged %d index lookups", st.IndexLookups)
	}
	for i, q := range queries {
		res, err := sys.Query(q.sql)
		if err != nil {
			t.Fatalf("indexed %s: %v", q.sql, err)
		}
		got := canonicalRows(t, res.Data, true)
		if strings.Join(got, "\n") != strings.Join(base[i], "\n") {
			t.Errorf("indexed %s diverges from index-off baseline:\n%v\nvs\n%v", q.sql, got, base[i])
		}
		p, err := sys.QueryPlaintext(q.sql)
		if err != nil {
			t.Fatalf("indexed plaintext %s: %v", q.sql, err)
		}
		pg := canonicalRows(t, p.Data, true)
		if strings.Join(pg, "\n") != strings.Join(plainBase[i], "\n") {
			t.Errorf("indexed plaintext %s diverges:\n%v\nvs\n%v", q.sql, pg, plainBase[i])
		}
	}
	if sys.Stats().IndexLookups == 0 {
		t.Fatalf("grid never exercised an index probe (IndexLookups = 0)")
	}
}
