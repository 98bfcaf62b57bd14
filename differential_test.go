package monomi

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Differential property test: a seeded random query generator runs the same
// queries through the plaintext engine and the encrypted split-execution
// path and requires identical results — crossing parallelism levels with
// batch sizes, so the sharded engine, the AggState merge path, the batched
// Paillier aggregation and the batch-at-a-time scan pipeline are all
// exercised against the sequential unbounded baseline. The Systems here are
// in process, so results are handed over as rows; the framed stream a remote
// client consumes is crossed with the same axes in differential_net_test.go
// and differential_backend_test.go.

const (
	diffRows    = 260 // enough rows that sharding kicks in (minShardRows*2 per shard)
	diffQueries = 24  // random queries per template set
	diffSeed    = 20130826
)

// diffBatchSizes crosses materialized execution (0) with a streamed batch
// size small enough that diffRows spans several batches, exercising
// batch-boundary filters inside every generated query.
var diffBatchSizes = []int{0, 64}

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
	opts := DefaultOptions()
	opts.PaillierBits = 256 // fast tests
	opts.SpaceBudget = 0    // unconstrained: materialize what the workload wants
	if backend != "" {
		opts.Backend = backend
		opts.DataDir = t.TempDir()
		opts.PageBytes = 1024
		opts.BlockCacheBytes = 16 << 10
	}
	sys, err := Encrypt(db, Workload{
		"sum_by_cat": "SELECT s_cat, SUM(s_price), SUM(s_qty), COUNT(*) FROM sales GROUP BY s_cat",
		"filter_ope": "SELECT s_id, s_price FROM sales WHERE s_qty < 10 AND s_price > 500",
		"date_range": "SELECT SUM(s_price) FROM sales WHERE s_date < date '1997-01-01'",
		"cat_eq":     "SELECT COUNT(*) FROM sales WHERE s_cat = 'ale'",
		"minmax":     "SELECT s_cat, MIN(s_price), MAX(s_price), AVG(s_qty) FROM sales GROUP BY s_cat",
		"join_cat":   "SELECT s_id, c_region, c_tier FROM sales, cats WHERE s_cat = c_name AND c_tier < 4",
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
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
// meet batch boundaries, shard seams, both hand-offs and both backends.
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

// TestDerivedTableScope: derived tables referenced from nested blocks in the
// ways flattening must prove safe or leave to a subplan — a qualified
// reference substituted under another binding of the base table, a nested
// block that re-binds the alias, a base-table name a nested block binds
// again, a multi-table derived table — and two derived tables exporting one
// name match the plaintext engine.
func TestDerivedTableScope(t *testing.T) {
	sys := diffSystem(t)
	for _, sql := range []string{
		"SELECT d.s_id, c_tier FROM (SELECT s_id, s_cat FROM sales) d, (SELECT c_name AS s_cat, c_tier FROM cats) e WHERE d.s_cat = e.s_cat ORDER BY d.s_id, c_tier",
		"SELECT d.s_id FROM (SELECT s_id, s_qty AS q FROM sales) d WHERE EXISTS (SELECT 1 FROM sales s2 WHERE s2.s_id = d.s_id + 1 AND s2.s_price < d.q * 20) ORDER BY d.s_id",
		"SELECT d.s_id FROM (SELECT s_id, s_price AS c_tier FROM sales) d WHERE EXISTS (SELECT 1 FROM cats d WHERE d.c_tier = 3) ORDER BY d.s_id",
		"SELECT d.s_id FROM (SELECT s_id, s_qty AS q FROM sales) d WHERE EXISTS (SELECT 1 FROM sales WHERE sales.s_id = d.s_id + 1 AND s_price < d.q * 20) ORDER BY d.s_id",
		"SELECT d.s_id FROM (SELECT s_id, c_tier AS t FROM sales, cats WHERE s_cat = c_name) d WHERE EXISTS (SELECT 1 FROM cats c2 WHERE c2.c_tier = d.t + 1) ORDER BY d.s_id, d.t",
	} {
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
	return append(out, breakerShapes...)
}

// canonicalRows renders result rows for comparison: floats rounded so the
// encrypted path's different evaluation order (SUM/COUNT split, shard
// merges) cannot flip a last-ulp bit, unordered results sorted.
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
	for _, par := range []int{1, 2, 4} {
		sys.SetParallelism(par)
		for _, bs := range diffBatchSizes {
			sys.SetBatchSize(bs)
			for _, q := range queries {
				plain, err := sys.QueryPlaintext(q.sql)
				if err != nil {
					t.Fatalf("p=%d bs=%d plaintext %s: %v", par, bs, q.sql, err)
				}
				enc, err := sys.Query(q.sql)
				if err != nil {
					t.Fatalf("p=%d bs=%d encrypted %s: %v", par, bs, q.sql, err)
				}
				want := canonicalRows(t, plain.Data, q.ordered)
				got := canonicalRows(t, enc.Data, q.ordered)
				if len(got) != len(want) {
					t.Fatalf("p=%d bs=%d %s: %d rows, plaintext %d", par, bs, q.sql, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("p=%d bs=%d %s\nrow %d: encrypted %q, plaintext %q", par, bs, q.sql, i, got[i], want[i])
					}
				}
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
	return append(out,
		diffQuery{fmt.Sprintf(
			"SELECT DISTINCT c_region, s_cat FROM sales, cats WHERE s_cat = c_name AND %s ORDER BY c_region, s_cat", pred()), true},
		diffQuery{fmt.Sprintf(
			"SELECT DISTINCT c_tier, s_qty FROM sales, cats WHERE s_cat = c_name AND %s", pred()), false})
}

// TestDifferentialJoinQueries runs the multi-table grid: every generated
// join query through the plaintext engine and the encrypted split path,
// across Parallelism × BatchSize — exercising the sharded partitioned
// hash-join build, the sharded probe and cross join, and the streamed-probe
// pipeline.
func TestDifferentialJoinQueries(t *testing.T) {
	sys := diffSystem(t)
	queries := genJoinQueries(rand.New(rand.NewSource(diffSeed+3)), 15)
	for _, par := range []int{1, 2, 4} {
		sys.SetParallelism(par)
		for _, bs := range diffBatchSizes {
			sys.SetBatchSize(bs)
			for _, q := range queries {
				plain, err := sys.QueryPlaintext(q.sql)
				if err != nil {
					t.Fatalf("p=%d bs=%d plaintext %s: %v", par, bs, q.sql, err)
				}
				enc, err := sys.Query(q.sql)
				if err != nil {
					t.Fatalf("p=%d bs=%d encrypted %s: %v", par, bs, q.sql, err)
				}
				want := canonicalRows(t, plain.Data, q.ordered)
				got := canonicalRows(t, enc.Data, q.ordered)
				if len(got) != len(want) {
					t.Fatalf("p=%d bs=%d %s: %d rows, plaintext %d", par, bs, q.sql, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("p=%d bs=%d %s\nrow %d: encrypted %q, plaintext %q", par, bs, q.sql, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestDifferentialParallelismInvariance pins the encrypted results
// themselves across execution modes: integer aggregates must be
// byte-identical whether computed sequentially, sharded, batched, or all at
// once — every ⟨parallelism, batch size⟩ combination against the sequential
// unbounded baseline.
func TestDifferentialParallelismInvariance(t *testing.T) {
	sys := diffSystem(t)
	queries := genQueries(rand.New(rand.NewSource(diffSeed+2)), 12)
	base := make([][]string, len(queries))
	sys.SetParallelism(1)
	sys.SetBatchSize(0)
	for i, q := range queries {
		res, err := sys.Query(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		base[i] = canonicalRows(t, res.Data, true)
	}
	for _, par := range []int{1, 2, 4} {
		sys.SetParallelism(par)
		for _, bs := range diffBatchSizes {
			if par == 1 && bs == 0 {
				continue // the baseline itself
			}
			sys.SetBatchSize(bs)
			for i, q := range queries {
				res, err := sys.Query(q.sql)
				if err != nil {
					t.Fatalf("p=%d bs=%d %s: %v", par, bs, q.sql, err)
				}
				got := canonicalRows(t, res.Data, true)
				if strings.Join(got, "\n") != strings.Join(base[i], "\n") {
					t.Errorf("p=%d bs=%d %s diverges from sequential unbounded:\n%v\nvs\n%v", par, bs, q.sql, got, base[i])
				}
			}
		}
	}
}

// shardedStreamShapes covers every shape the server's sharded producer can
// take: plain scan, DISTINCT, GROUP BY (incl. Paillier aggregation), join
// probe, ORDER BY … LIMIT, and LIMIT across shards. The network
// differential runs the same list over the framed stream.
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
	// LIMIT across sharded producers (batch boundary and mid-batch)
	"SELECT s_id FROM sales WHERE s_price >= 100 LIMIT 64",
	"SELECT s_id FROM sales LIMIT 70",
	"SELECT s_id FROM sales LIMIT 0",
}

// TestDifferentialShardedStream is the sharded-producer dimension of the
// grid: the server's engine runs per-worker row ranges feeding a shard-order
// merger, and streams DISTINCT and grouped emission — so every shape in
// shardedStreamShapes must be byte-identical to the sequential one-puller
// baseline across p 1/2/4 × bs 0/64. Row order is asserted verbatim
// (ordered=true for every shape): the stream contract pins order even where
// SQL would not.
func TestDifferentialShardedStream(t *testing.T) {
	sys := diffSystem(t)
	base := make([][]string, len(shardedStreamShapes))
	for _, bs := range diffBatchSizes {
		sys.SetBatchSize(bs)
		sys.SetParallelism(1) // the sequential one-puller baseline
		for i, sql := range shardedStreamShapes {
			res, err := sys.Query(sql)
			if err != nil {
				t.Fatalf("baseline bs=%d %s: %v", bs, sql, err)
			}
			base[i] = canonicalRows(t, res.Data, true)
		}
		for _, par := range []int{2, 4} {
			sys.SetParallelism(par)
			for i, sql := range shardedStreamShapes {
				res, err := sys.Query(sql)
				if err != nil {
					t.Fatalf("p=%d bs=%d %s: %v", par, bs, sql, err)
				}
				got := canonicalRows(t, res.Data, true)
				if strings.Join(got, "\n") != strings.Join(base[i], "\n") {
					t.Errorf("p=%d bs=%d %s diverges from sequential puller:\n%v\nvs\n%v",
						par, bs, sql, got, base[i])
				}
			}
		}
	}
}

// TestDifferentialIndexInvariance is the access-path dimension of the grid:
// the same queries with secondary indexes off (every scan reads the whole
// table) and on (DET hash probes, OPE range probes, ordered emission,
// index-served join builds — whenever the cost rule picks them) must be
// byte-identical, across parallelism × batch size. The index-off sequential
// unbounded run is the baseline.
func TestDifferentialIndexInvariance(t *testing.T) {
	sys := diffSystem(t)
	queries := genQueries(rand.New(rand.NewSource(diffSeed+4)), 12)
	queries = append(queries, genJoinQueries(rand.New(rand.NewSource(diffSeed+5)), 5)...)
	// Single-table blocks whose WHERE holds a sargable conjunct and a
	// subquery: planned at open like any block, so they reach the index
	// access paths (hash probe, ordered range) they used to be kept from.
	queries = append(queries,
		diffQuery{"SELECT s_id, s_price FROM sales WHERE s_cat = 'bock' AND s_qty = (SELECT MAX(s_qty) FROM sales) ORDER BY s_id", true},
		diffQuery{"SELECT s_id, s_qty FROM sales WHERE s_price BETWEEN 100 AND 180 AND s_cat IN (SELECT c_name FROM cats WHERE c_tier < 3) ORDER BY s_id", true},
		diffQuery{"SELECT s_id FROM sales WHERE s_cat = 'ale' AND s_qty < 5 AND EXISTS (SELECT 1 FROM cats WHERE c_name = s_cat AND c_tier < s_qty) ORDER BY s_id", true},
	)
	sys.SetIndexes(false)
	sys.SetParallelism(1)
	sys.SetBatchSize(0)
	base := make([][]string, len(queries))
	plainBase := make([][]string, len(queries))
	for i, q := range queries {
		res, err := sys.Query(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		base[i] = canonicalRows(t, res.Data, true)
		p, err := sys.QueryPlaintext(q.sql)
		if err != nil {
			t.Fatalf("plaintext %s: %v", q.sql, err)
		}
		plainBase[i] = canonicalRows(t, p.Data, true)
	}
	for _, idx := range []bool{false, true} {
		sys.SetIndexes(idx)
		for _, par := range []int{1, 4} {
			sys.SetParallelism(par)
			for _, bs := range diffBatchSizes {
				if !idx && par == 1 && bs == 0 {
					continue // the baseline itself
				}
				sys.SetBatchSize(bs)
				for i, q := range queries {
					res, err := sys.Query(q.sql)
					if err != nil {
						t.Fatalf("idx=%v p=%d bs=%d %s: %v", idx, par, bs, q.sql, err)
					}
					got := canonicalRows(t, res.Data, true)
					if strings.Join(got, "\n") != strings.Join(base[i], "\n") {
						t.Errorf("idx=%v p=%d bs=%d %s diverges from index-off baseline:\n%v\nvs\n%v",
							idx, par, bs, q.sql, got, base[i])
					}
					p, err := sys.QueryPlaintext(q.sql)
					if err != nil {
						t.Fatalf("idx=%v plaintext %s: %v", idx, q.sql, err)
					}
					pg := canonicalRows(t, p.Data, true)
					if strings.Join(pg, "\n") != strings.Join(plainBase[i], "\n") {
						t.Errorf("idx=%v p=%d bs=%d plaintext %s diverges:\n%v\nvs\n%v",
							idx, par, bs, q.sql, pg, plainBase[i])
					}
				}
			}
		}
	}
	if lookups, _ := func() (int64, int64) { s := sys.Stats(); return s.IndexLookups, s.RowsSkippedByIndex }(); lookups == 0 {
		t.Fatalf("grid never exercised an index probe (IndexLookups = 0)")
	}
}
