package monomi

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparser"
)

// The worker-count invariant, structurally. The engine cuts a large source
// into fixed-size morsels whose boundaries depend on the data alone, so a
// statement's rows, their order, every Float bit and the engine.Stats of
// each of its executions are the same at every GOMAXPROCS. These tests run
// every statement of the differential, repeated, backend and network suites
// at GOMAXPROCS 1, 2 and 4 and require exactly that. They change GOMAXPROCS
// for the whole process, so they must not run in parallel with other tests.

// procsLevels are the GOMAXPROCS values every statement runs at.
var procsLevels = []int{1, 2, 4}

// exactRows renders rows cell by cell, a float by its bits, so a last-ULP
// difference shows.
func exactRows(data [][]any) string {
	var b strings.Builder
	for _, row := range data {
		for j, v := range row {
			if j > 0 {
				b.WriteByte('|')
			}
			if f, ok := v.(float64); ok {
				fmt.Fprintf(&b, "f%x", math.Float64bits(f))
			} else {
				fmt.Fprintf(&b, "%T:%v", v, v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// renderStats renders the counters an execution's engines reported. UDF
// wall time is measured, not counted, so it is left out.
func renderStats(stats []engine.Stats) string {
	var b strings.Builder
	for _, st := range stats {
		st.UDFNanos = 0
		fmt.Fprintf(&b, "%+v\n", st)
	}
	return b.String()
}

// procsTarget is one deployment the invariant is checked on: the plaintext
// twin, or an encrypted System whose RemoteSQL executions rec records.
type procsTarget struct {
	name  string
	sys   *System
	rec   *recordingExec // nil: the plaintext twin of sys
	stmts []string
}

// recorded interposes a recorder on s's client.
func recorded(s *System) *recordingExec {
	rec := &recordingExec{inner: s.dep.Client.Executor()}
	s.dep.Client.SetExecutor(rec)
	return rec
}

// run executes sql once on the target and renders its rows and counters.
func (pt *procsTarget) run(t *testing.T, sql string) string {
	t.Helper()
	if pt.rec == nil {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("%s %s: %v", pt.name, sql, err)
		}
		res, err := pt.sys.dep.Engine.Execute(q, nil)
		if err != nil {
			t.Fatalf("%s %s: %v", pt.name, sql, err)
		}
		return exactRows(rowsData(res.Rows)) + renderStats([]engine.Stats{res.Stats})
	}
	pt.rec.stats, pt.rec.streams = nil, nil
	res, err := pt.sys.Query(sql)
	if err != nil {
		t.Fatalf("%s %s: %v", pt.name, sql, err)
	}
	return exactRows(res.Data) + renderStats(pt.rec.stats)
}

// uniqueSQL lists the statements of the given query lists once each, in
// first-seen order.
func uniqueSQL(lists ...[]diffQuery) []string {
	seen := make(map[string]bool)
	var out []string
	for _, l := range lists {
		for _, q := range l {
			if !seen[q.sql] {
				seen[q.sql] = true
				out = append(out, q.sql)
			}
		}
	}
	return out
}

// asQueries wraps bare statements as unordered diffQueries.
func asQueries(sqls []string) []diffQuery {
	out := make([]diffQuery, len(sqls))
	for i, s := range sqls {
		out[i] = diffQuery{sql: s}
	}
	return out
}

// coldProcsStatement reads s_date's RND column, which the differential
// workload never reads and the disk deployment keeps in sales' cold segment.
const coldProcsStatement = "SELECT s_id, s_date FROM sales WHERE s_qty < 8 ORDER BY s_id"

// TestDifferentialGOMAXPROCSInvariance runs the differential suite's
// statements (random, join, index and derived-table shapes) on the
// plaintext twin and in process, the backend suite's on the disk backend
// too (with a statement over a cold column, coldProcsStatement), the network and served-backend statements over loopback TCP, and the
// repeated and hotpath prepared shapes in process and remote — each at
// GOMAXPROCS 1, 2 and 4, plan caches reset before each level — and requires
// byte-identical rows, row order, Float bits and engine.Stats.
func TestDifferentialGOMAXPROCSInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	gen := func(seed int64, n int) []diffQuery { return genQueries(rand.New(rand.NewSource(diffSeed+seed)), n) }
	join := func(seed int64, n int) []diffQuery { return genJoinQueries(rand.New(rand.NewSource(diffSeed+seed)), n) }
	backend := uniqueSQL(gen(6, 12), join(7, 6))
	served := uniqueSQL(gen(8, 10), join(9, 5), asQueries(shardedStreamShapes))
	differential := uniqueSQL(gen(1, diffQueries), join(3, 15), gen(4, 12), join(5, 5),
		indexSubqueryShapes, asQueries(derivedScopeQueries), asQueries(backend), asQueries(served))

	mem := diffSystem(t)
	disk := diffSystemBackend(t, "disk")
	hot := hotpathSystem(t)
	t.Cleanup(func() { mem.Close(); disk.Close(); hot.Close() })
	srv, err := mem.Serve("127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := mem.ConnectRemote(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	hotSrv, err := hot.Serve("127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer hotSrv.Close()
	hotRemote, err := hot.ConnectRemote(hotSrv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer hotRemote.Close()

	targets := []*procsTarget{
		{name: "plaintext", sys: mem, stmts: differential},
		{name: "in-process", sys: mem, rec: recorded(mem), stmts: differential},
		{name: "disk", sys: disk, rec: recorded(disk), stmts: append(backend, coldProcsStatement)},
		{name: "remote", sys: remote, rec: recorded(remote), stmts: served},
	}
	prepared := []struct {
		name string
		sys  *System
		rec  *recordingExec
	}{
		{"in-process", mem, targets[1].rec}, {"remote", remote, targets[3].rec},
		{"hot in-process", hot, recorded(hot)}, {"hot remote", hotRemote, recorded(hotRemote)},
	}
	reps := repShapes(t)

	var base []string
	for _, p := range procsLevels {
		runtime.GOMAXPROCS(p)
		var got, tags []string
		for _, s := range []*System{mem, disk, remote, hot, hotRemote} {
			s.ResetPlanCache()
		}
		for _, pt := range targets {
			for _, sql := range pt.stmts {
				got, tags = append(got, pt.run(t, sql)), append(tags, pt.name+" "+sql)
			}
		}
		for _, d := range prepared {
			run := func(sql string, params map[string]any) {
				stmt, err := d.sys.Prepare(sql)
				if err != nil {
					t.Fatalf("%s prepare %s: %v", d.name, sql, err)
				}
				defer stmt.Close()
				d.rec.stats, d.rec.streams = nil, nil
				res, err := stmt.Query(params)
				if err != nil {
					t.Fatalf("%s %s %v: %v", d.name, sql, params, err)
				}
				got = append(got, exactRows(res.Data)+renderStats(d.rec.stats))
				tags = append(tags, fmt.Sprintf("%s prepared %s %v", d.name, sql, params))
			}
			for i := 0; i < 3; i++ {
				if strings.HasPrefix(d.name, "hot") {
					for _, sh := range hotpathShapes {
						run(sh.sql, sh.params(i))
					}
					continue
				}
				for _, sh := range reps {
					run(sh.sql, sh.params(i))
				}
			}
		}
		if base == nil {
			base = got
			continue
		}
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("GOMAXPROCS=%d %s diverges from GOMAXPROCS=1:\n%s\nvs\n%s", p, tags[i], got[i], base[i])
			}
		}
	}
	if coldPins(disk) == 0 {
		t.Errorf("the disk leg pinned no cold page: %s reads no cold column", coldProcsStatement)
	}
}

// floatSystem encrypts meas(m_id, m_grp, m_val) with rows integer values
// of mixed magnitude, and returns the Float products m_val * 0.1 that the
// tests sum: their sum depends on how its additions are grouped. DET and
// HOM take no Float, so the workload names no m_val operation: the design
// keeps m_val RND, and the client computes and sums the products in its own
// engine.
func floatSystem(t *testing.T, rows int) (*System, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(diffSeed))
	db := NewDatabase()
	db.MustCreateTable("meas", Col("m_id", Int), Col("m_grp", Int), Col("m_val", Int))
	vals := make([]float64, rows)
	for i := range vals {
		v := rng.Int63n(1 << (1 + rng.Intn(50)))
		vals[i] = float64(v) * 0.1
		db.MustInsert("meas", i, i%5, v)
	}
	opts := DefaultOptions()
	opts.PaillierBits = 256
	opts.SpaceBudget = 0
	sys, err := Encrypt(db, Workload{"grp": "SELECT COUNT(*) FROM meas WHERE m_grp = 2"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys, vals
}

// TestDifferentialFloatSumBits: SUM and AVG of Float values over a table of
// several morsels (8 192 rows each) return the same bits at every
// GOMAXPROCS, on the plaintext twin and through the encrypted split, whose
// client sums a temp table of as many rows. The values are chosen so that
// grouping the additions differently changes the sum: a worker-dependent
// grouping would show.
func TestDifferentialFloatSumBits(t *testing.T) {
	const rows = 3*8192 + 500
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sys, vals := floatSystem(t, rows)
	defer sys.Close()
	var left float64
	var halves [2]float64
	for i, v := range vals {
		left += v
		halves[i*2/len(vals)] += v
	}
	if left == halves[0]+halves[1] {
		t.Fatal("fixture: the sum does not depend on how the additions are grouped")
	}
	targets := []*procsTarget{{name: "plaintext", sys: sys}, {name: "encrypted", sys: sys, rec: recorded(sys)}}
	stmts := []string{
		"SELECT SUM(m_val * 0.1), AVG(m_val * 0.1) FROM meas",
		"SELECT m_grp, SUM(m_val * 0.1), AVG(m_val * 0.1) FROM meas GROUP BY m_grp ORDER BY m_grp",
		"SELECT SUM(m_val * 0.1) FROM meas WHERE m_grp = 2",
	}
	base := map[string]string{}
	for _, p := range procsLevels {
		runtime.GOMAXPROCS(p)
		sys.ResetPlanCache()
		for _, pt := range targets {
			for _, sql := range stmts {
				key, got := pt.name+" "+sql, pt.run(t, sql)
				if want, ok := base[key]; !ok {
					base[key] = got
				} else if got != want {
					t.Errorf("GOMAXPROCS=%d %s:\n%s\nvs GOMAXPROCS=1:\n%s", p, key, got, want)
				}
			}
		}
	}
}
