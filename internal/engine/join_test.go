package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Join-layer tests: classification regressions (mixed-side equalities,
// ambiguous unqualified columns), the cross-join preallocation cap, and
// byte-identity of the partitioned build / partitioned dedup / streamed-probe
// paths against the sequential materialized baseline.

// joinFixture builds facts(f_id, f_dim, f_val) × dims(d_id, d_name) with
// duplicate build-side keys (two dim rows per id) and NULL join keys on
// both sides, sized so morsels and batching both engage.
func joinFixture(t testing.TB, facts, dimIDs int) *Engine {
	t.Helper()
	cat := storage.NewCatalog()
	ft, err := cat.Create(storage.Schema{
		Name: "facts",
		Cols: []storage.Column{
			{Name: "f_id", Type: storage.TInt},
			{Name: "f_dim", Type: storage.TInt},
			{Name: "f_val", Type: storage.TInt},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < facts; i++ {
		dim := value.NewInt(int64(i % dimIDs))
		if i%13 == 5 {
			dim = value.NewNull() // NULL join keys match nothing
		}
		ft.MustInsert([]value.Value{value.NewInt(int64(i)), dim, value.NewInt(int64(i % 337))})
	}
	dt, err := cat.Create(storage.Schema{
		Name: "dims",
		Cols: []storage.Column{
			{Name: "d_id", Type: storage.TInt},
			{Name: "d_name", Type: storage.TStr},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dimIDs; i++ {
		// Two rows per key: probe output must keep build-side row order.
		dt.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewStr(fmt.Sprintf("dim-%03d-a", i))})
		dt.MustInsert([]value.Value{value.NewInt(int64(i)), value.NewStr(fmt.Sprintf("dim-%03d-b", i))})
	}
	dt.MustInsert([]value.Value{value.NewNull(), value.NewStr("dim-null")})
	return New(cat)
}

// renderResult flattens a result into comparable strings (kind-tagged, so
// NULL vs 0 vs "" cannot collide).
func renderJoinRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = fmt.Sprintf("%d:%s", v.K, v.HashKey())
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// joinModeQueries are the shapes the ⟨GOMAXPROCS, batchSize⟩ grid pins:
// equi-join, residual-filtered join, grouped join, cross join (grouped and
// projected), LIMIT early exit, and a three-table chain via a derived
// self-reference of dims.
var joinModeQueries = []string{
	`SELECT f_id, d_name FROM facts, dims WHERE f_dim = d_id`,
	`SELECT f_id, d_name FROM facts, dims WHERE f_dim = d_id AND f_val > d_id + 100`,
	`SELECT d_name, SUM(f_val), COUNT(*) FROM facts, dims WHERE f_dim = d_id GROUP BY d_name ORDER BY d_name`,
	`SELECT COUNT(*), SUM(f_val) FROM facts, dims`,
	`SELECT f_id, d_name FROM facts, dims LIMIT 53`,
	`SELECT f_id, d_name FROM facts, dims WHERE f_dim = d_id LIMIT 31`,
	`SELECT f_id, d_name FROM facts, dims WHERE f_dim = d_id ORDER BY f_id, d_name LIMIT 20`,
	`SELECT DISTINCT d_name FROM facts, dims WHERE f_dim = d_id`,
	`SELECT a.f_id, d_name, b.f_val FROM facts a, dims, facts b
	   WHERE a.f_dim = d_id AND b.f_id = a.f_id AND a.f_val < 40`,
}

// TestJoinModesByteIdentical pins every join query's rows across the
// ⟨GOMAXPROCS, batchSize⟩ grid against the sequential materialized
// baseline: the partitioned build, the multi-morsel probe, the multi-morsel
// cross join, the partitioned DISTINCT dedup, and the streamed-probe
// pipeline must all emit byte-identical rows in identical order.
func TestJoinModesByteIdentical(t *testing.T) {
	e := joinFixture(t, 500, 40)
	for qi, sql := range joinModeQueries {
		q := sqlparser.MustParse(sql)
		procs(t, 1)
		e.batchSize = 0
		base, err := e.Execute(q, nil)
		if err != nil {
			t.Fatalf("q%d baseline: %v", qi, err)
		}
		want := renderJoinRows(base)
		for _, par := range []int{1, 2, 4} {
			for _, bs := range []int{0, 1, 7, 64} {
				if par == 1 && bs == 0 {
					continue
				}
				procs(t, par)
				e.batchSize = bs
				res, err := e.Execute(q, nil)
				if err != nil {
					t.Fatalf("q%d p=%d bs=%d: %v", qi, par, bs, err)
				}
				got := renderJoinRows(res)
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("q%d p=%d bs=%d: %d rows diverge from baseline %d rows\n%s",
						qi, par, bs, len(got), len(want), sql)
				}
			}
		}
	}
}

// TestMixedSideEqualityIsResidual is the regression for the classifier
// bug: a two-table equality whose side mixes both tables (o_total =
// i_price + o_id + 59) is not a hash-join edge — orienting it would
// evaluate a left-table expression against the right-table environment.
// It must run as a residual filter over the joined rows.
func TestMixedSideEqualityIsResidual(t *testing.T) {
	e := fixture(t)
	for _, bs := range []int{0, 2} {
		e.batchSize = bs
		res := run(t, e, `SELECT o_id, i_tag FROM orders, items
			WHERE o_id = i_order AND o_total = i_price + o_id + 59`, nil)
		if len(res.Rows) != 1 {
			t.Fatalf("bs=%d: rows = %d, want 1", bs, len(res.Rows))
		}
		if res.Rows[0][0].AsInt() != 1 || res.Rows[0][1].S != "green gadget" {
			t.Errorf("bs=%d: row = %v", bs, res.Rows[0])
		}
	}
	// Mirror image: the mixed side on the left of the equality.
	e.batchSize = 0
	res := run(t, e, `SELECT o_id, i_tag FROM orders, items
		WHERE o_id = i_order AND i_price + o_id + 59 = o_total`, nil)
	if len(res.Rows) != 1 || res.Rows[0][1].S != "green gadget" {
		t.Errorf("mirrored: rows = %v", res.Rows)
	}
}

// TestAmbiguousColumnReference: an unqualified column that resolves in
// more than one FROM relation must be rejected (standard SQL), not bound
// silently to the first table.
func TestAmbiguousColumnReference(t *testing.T) {
	cat := storage.NewCatalog()
	for _, name := range []string{"t1", "t2"} {
		tb, err := cat.Create(storage.Schema{
			Name: name,
			Cols: []storage.Column{
				{Name: "k", Type: storage.TInt},
				{Name: "v_" + name, Type: storage.TInt},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tb.MustInsert([]value.Value{value.NewInt(1), value.NewInt(10)})
		tb.MustInsert([]value.Value{value.NewInt(2), value.NewInt(20)})
	}
	e := New(cat)
	for _, bs := range []int{0, 4} {
		e.batchSize = bs
		q := sqlparser.MustParse(`SELECT v_t1 FROM t1, t2 WHERE k = 1`)
		_, err := e.Execute(q, nil)
		if err == nil || !strings.Contains(err.Error(), "ambiguous") {
			t.Fatalf("bs=%d: err = %v, want ambiguous-column error", bs, err)
		}
	}
	// Qualified references stay legal.
	e.batchSize = 0
	res := run(t, e, `SELECT v_t1, v_t2 FROM t1, t2 WHERE t1.k = t2.k`, nil)
	if len(res.Rows) != 2 {
		t.Fatalf("qualified join rows = %d, want 2", len(res.Rows))
	}
}

// TestCrossJoinNestedLoopOrder: a large cross product must produce every
// row in nested-loop order at every worker count and batch size — the probe
// carries a row's expansion across batches and morsel outputs recombine in
// morsel order.
func TestCrossJoinNestedLoopOrder(t *testing.T) {
	cat := storage.NewCatalog()
	const nl, nr = 300, 300
	for _, tb := range []struct {
		name, col string
		n         int
	}{{"l", "lv", nl}, {"r", "rv", nr}} {
		tbl, err := cat.Create(storage.Schema{Name: tb.name, Cols: []storage.Column{{Name: tb.col, Type: storage.TInt}}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tb.n; i++ {
			tbl.MustInsert([]value.Value{value.NewInt(int64(i))})
		}
	}
	e := New(cat)
	for _, par := range []int{1, 4} {
		for _, bs := range []int{0, 1000} {
			procs(t, par)
			e.batchSize = bs
			out := run(t, e, `SELECT lv, rv FROM l, r`, nil)
			if len(out.Rows) != nl*nr {
				t.Fatalf("p=%d bs=%d: rows = %d, want %d", par, bs, len(out.Rows), nl*nr)
			}
			// Spot-check nested-loop order at the morsel seams.
			for _, i := range []int{0, 1, nr - 1, nr, nl*nr/2 + 17, nl*nr - 1} {
				wantL, wantR := int64(i/nr), int64(i%nr)
				if out.Rows[i][0].I != wantL || out.Rows[i][1].I != wantR {
					t.Fatalf("p=%d bs=%d row %d = (%d,%d), want (%d,%d)",
						par, bs, i, out.Rows[i][0].I, out.Rows[i][1].I, wantL, wantR)
				}
			}
		}
	}
}

// TestJoinExecuteStreamMatchesExecute: draining ExecuteStream on
// multi-table queries must reproduce Execute exactly — pipelined
// streamed-probe shapes and materialized-fallback shapes alike.
func TestJoinExecuteStreamMatchesExecute(t *testing.T) {
	e := joinFixture(t, 500, 40)
	for qi, sql := range joinModeQueries {
		q := sqlparser.MustParse(sql)
		procs(t, 1)
		e.batchSize = 0
		want, err := e.Execute(q, nil)
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		for _, bs := range []int{0, 7, 64} {
			for _, p := range []int{1, 4} {
				procs(t, p)
				e.batchSize = bs
				s, err := e.ExecuteStream(q, nil)
				if err != nil {
					t.Fatalf("q%d bs=%d p=%d: %v", qi, bs, p, err)
				}
				got := drainStream(t, s)
				if strings.Join(renderJoinRows(got), "\n") != strings.Join(renderJoinRows(want), "\n") {
					t.Errorf("q%d bs=%d p=%d: stream diverges from Execute\n%s", qi, bs, p, sql)
				}
			}
		}
	}
}

// TestJoinStreamIncremental pins the streamed probe's defining property:
// after the first batch of a multi-table pipelined stream, the build side
// is fully charged but the probe side's scan has barely started — the
// engine half of the multi-table time-to-first-batch win.
func TestJoinStreamIncremental(t *testing.T) {
	const facts = 5000
	e := joinFixture(t, facts, 40)
	procs(t, 1)
	e.batchSize = 64
	q := sqlparser.MustParse(`SELECT f_id, d_name FROM facts, dims WHERE f_dim = d_id`)
	s, err := e.ExecuteStream(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Next()
	if err != nil || len(b) == 0 {
		t.Fatalf("first batch: %d rows, err %v", len(b), err)
	}
	mid := s.Stats()
	dims, _ := e.Cat.Table("dims")
	total := int64(facts + dims.NumRows())
	if mid.RowsScanned >= total/4 {
		t.Fatalf("first batch scanned %d of %d rows: probe is not streaming", mid.RowsScanned, total)
	}
	if mid.RowsScanned < int64(dims.NumRows())+64 {
		t.Fatalf("first batch scanned %d rows: build side not charged before probe", mid.RowsScanned)
	}
	if mid.BatchesStreamed == 0 {
		t.Fatalf("probe scan not streamed: %+v", mid)
	}
	rest := drainStream(t, s)
	final := s.Stats()
	if final.RowsScanned != total {
		t.Errorf("drained stats scanned %d rows, want %d", final.RowsScanned, total)
	}
	if len(rest.Rows) == 0 {
		t.Error("stream delivered no further batches")
	}
	// Abandoning a fresh stream mid-probe stops the scan (no goroutines to
	// leak: the pull chain owns none).
	s2, err := e.ExecuteStream(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Next(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if st := s2.Stats(); st.RowsScanned >= total {
		t.Errorf("abandoned join stream scanned all %d rows", st.RowsScanned)
	}
}

// TestJoinStreamBatchCap: a probe row's fanout must not inflate output
// batches. A streamed cross join (every probe row matches the whole right
// side) still emits batch-sized frames, carrying the expansion across
// next calls — the property that keeps streamed-wire frames and the
// consumer's working set batch-sized.
func TestJoinStreamBatchCap(t *testing.T) {
	const bs = 32
	e := joinFixture(t, 200, 40) // dims: 81 rows ≫ bs, so one probe row overflows a batch
	procs(t, 1)
	e.batchSize = bs
	s, err := e.ExecuteStream(sqlparser.MustParse(`SELECT f_id, d_name FROM facts, dims`), nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		b, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if len(b) > bs {
			t.Fatalf("stream emitted a %d-row batch, cap is %d", len(b), bs)
		}
		total += len(b)
	}
	if want := 200 * 81; total != want {
		t.Fatalf("cross join streamed %d rows, want %d", total, want)
	}
}

// TestJoinBuildPartitioned: a build of several morsels, one partition per
// morsel, must place every non-NULL key in exactly one partition, with its
// row list in build-side row order, and agree with the one-morsel build.
func TestJoinBuildPartitioned(t *testing.T) {
	e := joinFixture(t, 64, 50) // 101 dim rows: four 32-row morsels at batch 4
	tbl, err := e.Cat.Table("dims")
	if err != nil {
		t.Fatal(err)
	}
	tblRows, _, err := tbl.ScanRows(0, tbl.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	rel := &relation{rows: tblRows}
	for _, col := range tbl.Schema.Cols {
		rel.cols = append(rel.cols, colInfo{table: "dims", name: col.Name})
	}
	keys := []ast.Expr{&ast.ColumnRef{Column: "d_id"}}

	seqCtx := &execCtx{eng: e, stats: &Stats{}}
	seq, err := seqCtx.buildJoinMap(rel, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.batchSize = 4
	parCtx := &execCtx{eng: e, stats: &Stats{}}
	par, err := parCtx.buildJoinMap(rel, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.parts) < 2 {
		t.Fatalf("parallel build produced %d partitions, want several", len(par.parts))
	}
	total := 0
	for p, m := range par.parts {
		for k, slot := range m.slot {
			rows := m.rows[slot]
			if joinPartition(k, len(par.parts)) != p {
				t.Fatalf("key %q landed in partition %d, owns %d", k, p, joinPartition(k, len(par.parts)))
			}
			want, err := seq.lookup(seqCtx, []byte(k))
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(want) {
				t.Fatalf("key %q: %d rows, sequential build has %d", k, len(rows), len(want))
			}
			for i := range rows {
				if rows[i][1].S != want[i][1].S {
					t.Fatalf("key %q row %d out of order: %q vs %q", k, i, rows[i][1].S, want[i][1].S)
				}
			}
			total += len(rows)
		}
	}
	if want := tbl.NumRows() - 1; total != want { // one NULL-key dim row skipped
		t.Fatalf("partitioned build holds %d rows, want %d", total, want)
	}
}
