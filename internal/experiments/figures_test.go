package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tpch"
)

// The experiment harness tests assert the paper's qualitative shapes, not
// absolute numbers: MONOMI beats CryptDB+Client, never loses to
// Execution-Greedy (§8.3), stays within a small factor of plaintext, and
// the space ordering CryptDB > Greedy >= MONOMI > plaintext holds.

var suiteCache = struct {
	sync.Mutex
	s *Suite
}{}

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteCache.Lock()
	defer suiteCache.Unlock()
	if suiteCache.s == nil {
		s, err := NewSuite(Config{SF: testSF, Seed: testSeed, PaillierBits: 512})
		if err != nil {
			t.Fatal(err)
		}
		suiteCache.s = s
	}
	return suiteCache.s
}

func TestFigure4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness run")
	}
	s := testSuite(t)
	fig, err := s.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != len(tpch.SupportedQueries()) {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	mc, mg, mm := fig.Medians()
	t.Logf("median slowdowns: CryptDB+Client %.2fx, Execution-Greedy %.2fx, MONOMI %.2fx", mc, mg, mm)
	t.Logf("\n%s", fig.String())
	if mm >= mc {
		t.Errorf("MONOMI median (%.2fx) should beat CryptDB+Client (%.2fx)", mm, mc)
	}
	if mm > mg*1.05 {
		t.Errorf("MONOMI median (%.2fx) should not lose to Execution-Greedy (%.2fx)", mm, mg)
	}
	// The paper reports 1.24x median; shapes, not absolutes — but the
	// overhead must stay moderate.
	if mm > 8 {
		t.Errorf("MONOMI median slowdown %.2fx is out of the expected band", mm)
	}
	// Per-query: the planner should never lose badly to greedy (§8.3:
	// "never worse than Execution-Greedy"). Figure4 times each query with
	// a single shot, so on a loaded host a scheduling hiccup during one
	// MONOMI run can fake a violation; confirm with a re-measurement of
	// both sides before failing.
	exceeds := func(monomi, greedy time.Duration) bool {
		return monomi > greedy*12/10+10*time.Millisecond
	}
	for _, row := range fig.Rows {
		if !exceeds(row.Monomi, row.Greedy) {
			continue
		}
		rg, err := s.Greedy.RunEncrypted(row.Query)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := s.Monomi.RunEncrypted(row.Query)
		if err != nil {
			t.Fatal(err)
		}
		if exceeds(rm.Total(), rg.Total()) {
			t.Errorf("Q%d: MONOMI %v worse than Execution-Greedy %v (confirmed %v vs %v)",
				row.Query, row.Monomi, row.Greedy, rm.Total(), rg.Total())
		} else {
			t.Logf("Q%d: single-shot outlier %v vs %v not confirmed (%v vs %v)",
				row.Query, row.Monomi, row.Greedy, rm.Total(), rg.Total())
		}
	}
}

func TestTable2SpaceOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness run")
	}
	s := testSuite(t)
	rows := s.Table2()
	t.Logf("\n%s", FormatTable2(rows))
	plain, cdb, greedy, monomi := rows[0].Bytes, rows[1].Bytes, rows[2].Bytes, rows[3].Bytes
	if monomi <= plain {
		t.Error("encryption must cost space")
	}
	if cdb <= monomi {
		t.Errorf("CryptDB+Client (%d) should be larger than MONOMI (%d)", cdb, monomi)
	}
	if monomi > greedy {
		t.Errorf("MONOMI (%d) should not exceed Execution-Greedy (%d)", monomi, greedy)
	}
	ratio := float64(monomi) / float64(plain)
	if ratio < 1.1 || ratio > 3.2 {
		t.Errorf("MONOMI space ratio %.2fx outside expected band (paper: 1.72x)", ratio)
	}
	cratio := float64(cdb) / float64(plain)
	if cratio < 2.0 {
		t.Errorf("CryptDB+Client ratio %.2fx should be large (paper: 4.21x)", cratio)
	}
}

func TestTable3Census(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness run")
	}
	s := testSuite(t)
	rows := Table3(s.Monomi.Design.Design)
	out := FormatTable3(rows)
	t.Logf("\n%s", out)
	if len(rows) != 8 {
		t.Fatalf("tables = %d, want 8", len(rows))
	}
	summary, opeCols := SecuritySummary(rows)
	t.Log(summary)
	total := 0
	for _, r := range rows {
		total += r.BaseCols + r.PrecompCols
	}
	if opeCols == 0 {
		t.Error("some OPE columns expected (range filters)")
	}
	if float64(opeCols) > 0.35*float64(total) {
		t.Errorf("OPE on %d/%d columns: should be the minority", opeCols, total)
	}
	if !strings.Contains(out, "lineitem") {
		t.Error("census must include lineitem")
	}
}

func TestFigure7ClientCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness run")
	}
	s := testSuite(t)
	rows, err := s.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatFigure7(rows))
	if len(rows) != 19 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestDesignerStats(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness run")
	}
	s := testSuite(t)
	st := s.Stats()
	t.Log(st.String())
	if st.Vars == 0 || st.Constraints == 0 {
		t.Error("ILP should have variables and constraints")
	}
}
