package client

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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

// TestClientPlanCacheHitMiss runs one shape with varying literals: the
// first execution misses and fills; later ones hit and must return the
// same rows the cold path did.
func TestClientPlanCacheHitMiss(t *testing.T) {
	f := newFixture(t)
	shape := "SELECT o_id, o_total FROM orders WHERE o_total >= %d ORDER BY o_id"
	cold := make(map[int][]string)
	for _, lo := range []int{50, 100, 300} {
		res, err := f.client.Query(fmt.Sprintf(shape, lo), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.PlanCacheHit && lo == 50 {
			t.Error("first execution cannot hit the plan cache")
		}
		cold[lo] = canonicalRows(res.Rows, true)
	}
	st := f.client.PlanCacheStats()
	if st.Misses < 1 {
		t.Fatalf("expected a miss: %+v", st)
	}
	if st.Hits < 2 {
		t.Fatalf("varying literals of one shape should hit after the fill: %+v", st)
	}
	for _, lo := range []int{50, 100, 300} {
		res, err := f.client.Query(fmt.Sprintf(shape, lo), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.PlanCacheHit {
			t.Errorf("lo=%d: warm execution missed", lo)
		}
		got := canonicalRows(res.Rows, true)
		if strings.Join(got, "\n") != strings.Join(cold[lo], "\n") {
			t.Errorf("lo=%d: warm rows diverge from cold:\n%v\nvs\n%v", lo, got, cold[lo])
		}
	}
}

// TestClientPlanCacheStampede fires N goroutines at one cold shape
// concurrently: the singleflight fill must plan once-ish (leader plans,
// waiters reuse), every goroutine must get correct rows, and the run must
// be race-free under -race.
func TestClientPlanCacheStampede(t *testing.T) {
	f := newFixture(t)
	var parses atomic.Int32
	f.client.ParseHook = func(string) { parses.Add(1) }
	const n = 16
	sql := "SELECT o_cust, SUM(o_total) FROM orders WHERE o_total > 40 GROUP BY o_cust ORDER BY o_cust"
	want, err := f.client.Query(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := canonicalRows(want.Rows, true)
	f.client.ResetPlanCache()

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
	if st.Hits+st.Misses < n {
		t.Errorf("every execution must be counted: %+v", st)
	}
	// The same SQL string parses at most twice across the whole test (once
	// before the reset, once after): the stampede itself shares one parse.
	if got := parses.Load(); got > 2 {
		t.Errorf("stampede parsed %d times; the parse cache should bound it at 2", got)
	}
}

// TestClientParseCache is the regression test for Query re-parsing SQL on
// every call: repeated Query with the same text must parse once.
func TestClientParseCache(t *testing.T) {
	f := newFixture(t)
	var parses atomic.Int32
	f.client.ParseHook = func(string) { parses.Add(1) }
	sql := "SELECT o_id FROM orders WHERE o_cust = 'alice' ORDER BY o_id"
	for i := 0; i < 5; i++ {
		if _, err := f.client.Query(sql, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := parses.Load(); got != 1 {
		t.Errorf("5 executions parsed %d times, want 1", got)
	}
	// A different text is a different parse.
	if _, err := f.client.Query("SELECT o_id FROM orders", nil); err != nil {
		t.Fatal(err)
	}
	if got := parses.Load(); got != 2 {
		t.Errorf("parse count after second shape = %d, want 2", got)
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

// TestUnboundParamNotTakenFromSlot: a statement's own parameter is never
// bound from a hoisted literal's slot, whatever it is named — left unbound,
// it fails the query on the cold and the cached path alike.
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
// the shape must be cached negatively (every execution a miss) and stay
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
	// The outer shape misses every time (checked per-execution above via
	// PlanCacheHit); the pre-executed scalar subquery is its own cacheable
	// shape and may hit from the second execution on.
	st := f.client.PlanCacheStats()
	if st.Misses < 3 {
		t.Errorf("expected >=3 misses: %+v", st)
	}
}
