package monomi

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/deploy"
)

// The deployment golden: what the benchmark's workloads deploy and plan,
// at their own scale and options (TPC-H SF 0.01, seed 1, DefaultOptions,
// every supported query as the designer's workload; the hotpath table of
// 100 000 rows under its three prepared shapes). testdata/deploy.golden
// pins the design census, each query's plan text and the bytes it moves
// (WireBytes, KeyBytes). internal/experiments' plans.golden covers the
// paper's configurations at a smaller, index-free scale; this covers the
// indexed deployment Encrypt builds. A change that means to keep the cost
// model's choices must pass it without regenerating the file.

// The hotpath deployment, as the benchmark builds it: ev(e_id, e_grp,
// e_val) with row i = (i, i % 1000, 7919·i % 20000), designed for the three
// shapes with representative literals, each shape then run once prepared.
const (
	goldenEvRows   = 100000
	goldenEvGroups = 1000
	goldenEvValues = 20000
)

var goldenHotShapes = []struct {
	name, sql string
	params    map[string]any
}{
	{"point", `SELECT e_id, e_val FROM ev WHERE e_id = :id`, map[string]any{"id": 1}},
	{"range", `SELECT e_id, e_val FROM ev WHERE e_val BETWEEN :lo AND :hi`, map[string]any{"lo": 100, "hi": 119}},
	{"sum1", `SELECT SUM(e_val), COUNT(*) FROM ev WHERE e_grp = :g`, map[string]any{"g": 1}},
}

func renderCensus(b *strings.Builder, sys *System) {
	var lines []string
	for _, c := range sys.Design() {
		lines = append(lines, fmt.Sprintf("%s|%s|%s|%v", c.Table, c.Expr, c.Scheme, c.Precompute))
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, "\n") + "\n")
}

func renderRows(b *strings.Builder, name string, r *Rows) {
	fmt.Fprintf(b, "==== %s plan\n%s", name, r.PlanText)
	fmt.Fprintf(b, "==== %s rows %d wire %d keys %d\n", name, len(r.Data), r.WireBytes, r.KeyBytes)
}

func renderDeployGolden(t *testing.T) string {
	var b strings.Builder
	db, err := TPCH(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	wl := Workload{}
	for _, qn := range TPCHQueries() {
		wl[fmt.Sprintf("Q%02d", qn)] = mustTPCH(qn)
	}
	sys, err := Encrypt(db, wl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	b.WriteString("==== tpch design\n")
	renderCensus(&b, sys)
	for _, qn := range TPCHQueries() {
		r, err := sys.Query(mustTPCH(qn))
		if err != nil {
			t.Fatalf("Q%02d: %v", qn, err)
		}
		renderRows(&b, fmt.Sprintf("tpch Q%02d", qn), r)
	}

	ev := NewDatabase()
	ev.MustCreateTable("ev", Col("e_id", Int), Col("e_grp", Int), Col("e_val", Int))
	for i := 0; i < goldenEvRows; i++ {
		ev.MustInsert("ev", i, i%goldenEvGroups, 7919*i%goldenEvValues)
	}
	hwl := Workload{}
	for _, s := range goldenHotShapes {
		sql := s.sql
		for name, v := range s.params {
			sql = strings.ReplaceAll(sql, ":"+name, fmt.Sprint(v))
		}
		hwl[s.name] = sql
	}
	hot, err := Encrypt(ev, hwl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer hot.Close()
	b.WriteString("==== hotpath design\n")
	renderCensus(&b, hot)
	for _, s := range goldenHotShapes {
		st, err := hot.Prepare(s.sql)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		r, err := st.Query(s.params)
		st.Close()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		renderRows(&b, "hotpath "+s.name, r)
	}
	b.WriteString("==== layout\n")
	renderLayout(t, &b, sys, wl)
	renderLayout(t, &b, hot, hwl)
	return b.String()
}

// renderLayout writes the layout the disk backend would give sys's
// encrypted tables under workload (deploy.Layout): per table, its cluster
// column or load order, its zoned columns and its hot and cold column
// counts.
func renderLayout(t *testing.T, b *strings.Builder, sys *System, workload Workload) {
	layout, err := deploy.Layout(sys.dep.Design.Context, workload, sys.dep.Client.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	cat := sys.dep.DB.Cat
	names := cat.Names()
	sort.Strings(names)
	for _, name := range names {
		tb, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		tl := layout[name]
		cluster, zoned := "load order", "-"
		if tl.Cluster != "" {
			cluster = "cluster " + tl.Cluster
		}
		if len(tl.Zoned) > 0 {
			zoned = strings.Join(tl.Zoned, " ")
		}
		cold := len(layout.Cold(tb.Schema))
		fmt.Fprintf(b, "%s|%s|zoned %s|hot %d cold %d\n", name, cluster, zoned, len(tb.Schema.Cols)-cold, cold)
	}
}

func TestDeployGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("two DefaultOptions deployments and 22 encrypted executions")
	}
	path := filepath.Join("testdata", "deploy.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := renderDeployGolden(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "==== ") {
			section = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d (%s):\n got  %s\n want %s", path, i+1, section, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}
