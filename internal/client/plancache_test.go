package client

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/value"
)

// --- planCache unit behavior ---

func TestPlanCacheLRUEviction(t *testing.T) {
	pc := newPlanCache(2)
	// fill a, b; touch a; insert c → b (LRU) must evict.
	ea, _ := pc.acquire("a")
	pc.fill(ea, &compiled{})
	eb, _ := pc.acquire("b")
	pc.fill(eb, &compiled{})
	if e, leader := pc.acquire("a"); leader {
		t.Fatal("a should be cached")
	} else if e.plan == nil {
		t.Fatal("a should be filled")
	}
	ec, _ := pc.acquire("c")
	pc.fill(ec, nil) // a negative entry takes a slot like any other
	st := pc.stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("after eviction: %+v", st)
	}
	// Check a first: acquiring is itself a use, and a leader acquire
	// inserts (possibly evicting), so probe the survivor before the victim.
	if _, leader := pc.acquire("a"); leader {
		t.Fatal("a (recently used) should have survived")
	}
	if _, leader := pc.acquire("b"); !leader {
		t.Fatal("b should have been evicted (LRU)")
	}
}

func TestPlanCacheAbandonRetries(t *testing.T) {
	pc := newPlanCache(4)
	e, leader := pc.acquire("k")
	if !leader {
		t.Fatal("first acquire must lead")
	}
	pc.abandon(e)
	if _, leader := pc.acquire("k"); !leader {
		t.Fatal("abandoned key must be retried by the next acquirer")
	}
}

// --- client-level fast path ---

// TestClientPlanCacheHitMiss runs one prepared statement with varying
// parameters: the first execution misses and fills; later ones hit and
// must return the rows an uncached plan of the same values returns.
func TestClientPlanCacheHitMiss(t *testing.T) {
	f := newFixture(t)
	stmt, err := f.client.Prepare("SELECT o_id, o_total FROM orders WHERE o_total >= :lo ORDER BY o_id")
	if err != nil {
		t.Fatal(err)
	}
	for i, lo := range []int64{50, 100, 300, 50} {
		res, err := stmt.Execute(map[string]value.Value{"lo": value.NewInt(lo)})
		if err != nil {
			t.Fatal(err)
		}
		if res.PlanCacheHit != (i > 0) {
			t.Errorf("execution %d (lo=%d): PlanCacheHit = %v", i, lo, res.PlanCacheHit)
		}
		q := sqlparser.MustParse(fmt.Sprintf("SELECT o_id, o_total FROM orders WHERE o_total >= %d ORDER BY o_id", lo))
		cold, err := f.client.runUncached(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, want := canonicalRows(res.Rows, true), canonicalRows(cold.Rows, true)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("lo=%d: cached rows diverge from an uncached plan:\n%v\nvs\n%v", lo, got, want)
		}
	}
	if st := f.client.PlanCacheStats(); st.Misses != 1 || st.Hits != 3 || st.Size != 1 {
		t.Fatalf("one statement, four executions: %+v, want 1 miss, 3 hits, 1 entry", st)
	}
}

// TestClientPlanCacheStampede fires N goroutines at one cold statement
// concurrently: the single-flight fill must parse and plan once (the
// leader's miss) while the waiters reuse its template, every goroutine must
// get correct rows, and the run must be race-free under -race.
func TestClientPlanCacheStampede(t *testing.T) {
	f := newFixture(t)
	const n = 16
	sql := "SELECT o_cust, SUM(o_total) FROM orders WHERE o_total > 40 GROUP BY o_cust ORDER BY o_cust"
	want, err := f.client.Query(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := canonicalRows(want.Rows, true)
	f.client.ResetPlanCache()
	before := f.client.PlanCacheStats()

	var wg sync.WaitGroup
	errs := make([]error, n)
	rows := make([][]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := f.client.Query(sql, nil)
			if err != nil {
				errs[i] = err
				return
			}
			rows[i] = canonicalRows(res.Rows, true)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if strings.Join(rows[i], "\n") != strings.Join(wantRows, "\n") {
			t.Errorf("goroutine %d rows diverge:\n%v\nvs\n%v", i, rows[i], wantRows)
		}
	}
	st := f.client.PlanCacheStats()
	if misses, hits := st.Misses-before.Misses, st.Hits-before.Hits; misses != 1 || hits != n-1 {
		t.Errorf("stampede of %d: %d misses, %d hits; want 1 miss (the only parse) and %d hits", n, misses, hits, n-1)
	}
}

// TestClientParseCache is the regression test for Query re-parsing SQL on
// every call: repeated Query with the same text must miss once — the only
// parse — and hit after.
func TestClientParseCache(t *testing.T) {
	f := newFixture(t)
	sql := "SELECT o_id FROM orders WHERE o_cust = 'alice' ORDER BY o_id"
	for i := 0; i < 5; i++ {
		if _, err := f.client.Query(sql, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := f.client.PlanCacheStats(); st.Misses != 1 || st.Hits != 4 {
		t.Errorf("5 executions: %+v, want 1 miss and 4 hits", st)
	}
	// A different text is a different entry, and another parse.
	if _, err := f.client.Query("SELECT o_id FROM orders WHERE o_cust = 'bob' ORDER BY o_id", nil); err != nil {
		t.Fatal(err)
	}
	if st := f.client.PlanCacheStats(); st.Misses != 2 || st.Size != 2 {
		t.Errorf("after a second text: %+v, want 2 misses and 2 entries", st)
	}
}

// TestPlanKeyFraming: the cache key frames the SQL text and each parameter
// name by length. Under a naive join, sql + "\x00" + name + "=" + kind per
// parameter, the two pairs below share a key: the second text ends in a
// comment holding the first pair's NUL, '=' and kind bytes, and the first
// pair's extra parameter name holds the rest. Each pair must get its own
// entry and its own rows.
func TestPlanKeyFraming(t *testing.T) {
	f := newFixture(t)
	base := "SELECT o_id FROM orders WHERE o_total >= :c ORDER BY o_id --"
	naive := func(sql string, params map[string]value.Value) string {
		names := make([]string, 0, len(params))
		for name := range params {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			sql += "\x00" + name + "=" + string(rune(params[name].K))
		}
		return sql
	}
	pairs := []struct {
		sql    string
		params map[string]value.Value
		lo     string
	}{
		{base, map[string]value.Value{"c": value.NewInt(100), "d\x00c": value.NewNull()}, "100"},
		{base + "\x00c=" + string(rune(value.Int)) + "\x00d", map[string]value.Value{"c": value.NewNull()}, "NULL"},
	}
	if a, b := naive(pairs[0].sql, pairs[0].params), naive(pairs[1].sql, pairs[1].params); a != b {
		t.Fatalf("the pairs do not collide under the naive join:\n%q\n%q", a, b)
	}
	if planKey(pairs[0].sql, false, pairs[0].params) == planKey(pairs[1].sql, false, pairs[1].params) {
		t.Fatal("two statements share a plan-cache key")
	}
	for round := 0; round < 2; round++ {
		for i, p := range pairs {
			res, err := f.client.Query(p.sql, p.params)
			if err != nil {
				t.Fatalf("pair %d: %v", i, err)
			}
			if res.PlanCacheHit != (round > 0) {
				t.Errorf("round %d pair %d: PlanCacheHit = %v", round, i, res.PlanCacheHit)
			}
			want, err := f.plain.Execute(sqlparser.MustParse("SELECT o_id FROM orders WHERE o_total >= "+p.lo+" ORDER BY o_id"), nil)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := canonicalRows(res.Rows, true), canonicalRows(want.Rows, true); strings.Join(g, ";") != strings.Join(w, ";") {
				t.Errorf("round %d pair %d: rows %v, want %v", round, i, g, w)
			}
		}
	}
	if st := f.client.PlanCacheStats(); st.Size != 2 || st.Misses != 2 || st.Hits != 2 {
		t.Errorf("%+v, want 2 entries, 2 misses, 2 hits", st)
	}
}

// TestClientPreparedParams runs the prepared-statement surface end to end
// in-process: one Stmt, many parameter bindings, each checked against the
// plaintext engine via the fixture.
func TestClientPreparedParams(t *testing.T) {
	f := newFixture(t)
	stmt, err := f.client.Prepare("SELECT o_id, o_total FROM orders WHERE o_total >= :lo ORDER BY o_id")
	if err != nil {
		t.Fatal(err)
	}
	for i, lo := range []int64{10, 77, 250, 900, 10} {
		res, err := stmt.Execute(map[string]value.Value{"lo": value.NewInt(lo)})
		if err != nil {
			t.Fatalf("lo=%d: %v", lo, err)
		}
		plain := f.checkQuery(t, fmt.Sprintf("SELECT o_id, o_total FROM orders WHERE o_total >= %d ORDER BY o_id", lo), nil)
		got := canonicalRows(res.Rows, true)
		want := canonicalRows(plain.Rows, true)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("lo=%d rows diverge:\n%v\nvs\n%v", lo, got, want)
		}
		if i > 0 && !res.PlanCacheHit {
			t.Errorf("execution %d (lo=%d) should hit the plan cache", i, lo)
		}
	}
}

// TestUnboundParamNotTakenFromSlot: a statement's own parameter left
// unbound fails the query, whatever it is named, on its first execution and
// its repeats alike: a failed plan caches nothing.
func TestUnboundParamNotTakenFromSlot(t *testing.T) {
	f := newFixture(t)
	for _, name := range []string{"qp0", "qp1", "lo"} {
		sql := "SELECT o_id FROM orders WHERE o_total >= 50 AND o_total < :" + name
		for i := 0; i < 2; i++ {
			if res, err := f.client.Query(sql, nil); err == nil {
				t.Fatalf("%s (execution %d): %d rows, want an unbound-parameter error", sql, i, len(res.Rows))
			}
		}
	}
}

// TestUncacheableShapeNegativeEntry: a scalar-subquery query substitutes a
// computed constant into the outer plan, which rebinding cannot reproduce —
// the statement must be cached negatively (every execution a miss) and stay
// correct.
func TestUncacheableShapeNegativeEntry(t *testing.T) {
	f := newFixture(t)
	sql := "SELECT o_id FROM orders WHERE o_total > (SELECT SUM(o_total) / 10 FROM orders) ORDER BY o_id"
	var first []string
	for i := 0; i < 3; i++ {
		res, err := f.client.Query(sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.PlanCacheHit {
			t.Errorf("execution %d of an uncacheable shape reported a hit", i)
		}
		got := canonicalRows(res.Rows, true)
		if i == 0 {
			first = got
		} else if strings.Join(got, "\n") != strings.Join(first, "\n") {
			t.Errorf("execution %d diverges from the first", i)
		}
	}
	// The statement misses every time; the pre-executed scalar subquery
	// runs outside the cache.
	if st := f.client.PlanCacheStats(); st.Misses != 3 || st.Hits != 0 {
		t.Errorf("%+v, want 3 misses and no hit", st)
	}
}
