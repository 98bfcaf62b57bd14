package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/tpch"
)

// Table 2: server space by configuration.

// Table2Row is one configuration's footprint.
type Table2Row struct {
	System string
	Bytes  int64
}

// Table2 measures the actual encrypted database sizes of the suite's three
// configurations against the plaintext database.
func (s *Suite) Table2() []Table2Row {
	plain := s.Monomi.Plain.TotalBytes()
	return []Table2Row{
		{System: "Plaintext", Bytes: plain},
		{System: "CryptDB+Client", Bytes: s.CryptDB.DB.TotalBytes()},
		{System: "Execution-Greedy", Bytes: s.Greedy.DB.TotalBytes()},
		{System: "MONOMI", Bytes: s.Monomi.DB.TotalBytes()},
	}
}

// FormatTable2 renders the table with relative factors.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: server space requirements\n")
	fmt.Fprintf(&b, "%-18s %12s %10s\n", "system", "size", "relative")
	plain := float64(rows[0].Bytes)
	for _, r := range rows {
		rel := "-"
		if r.System != "Plaintext" {
			rel = fmt.Sprintf("%.2fx", float64(r.Bytes)/plain)
		}
		fmt.Fprintf(&b, "%-18s %12s %10s\n", r.System, fmtBytes(r.Bytes), rel)
	}
	return b.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// Figure 9: queries affected by shrinking the space budget from S=2 to
// S=1.4, under the ILP designer vs. the Space-Greedy heuristic.

// Fig9Row is one query's runtime under the three budget configurations.
type Fig9Row struct {
	Query       int
	S2          time.Duration
	S14Greedy   time.Duration
	S14ILP      time.Duration
	AffectedAny bool
}

// Fig9Result is the full experiment.
type Fig9Result struct {
	Rows []Fig9Row
}

// Figure9 builds the three designs and measures every query, flagging those
// whose runtime moved by more than 10% (the paper plots Q1, Q6, Q14, Q18).
func Figure9(base Config) (*Fig9Result, error) {
	mk := func(budget float64, greedy bool) (*Bench, error) {
		cfg := base.under(MonomiConfig(base.SF))
		cfg.Designer.SpaceBudget = budget
		cfg.Designer.SpaceGreedy = greedy
		cfg.Name = fmt.Sprintf("S=%.1f greedy=%v", budget, greedy)
		return Setup(cfg)
	}
	s2, err := mk(2.0, false)
	if err != nil {
		return nil, fmt.Errorf("S=2: %w", err)
	}
	s14g, err := mk(1.4, true)
	if err != nil {
		return nil, fmt.Errorf("S=1.4 greedy: %w", err)
	}
	s14i, err := mk(1.4, false)
	if err != nil {
		return nil, fmt.Errorf("S=1.4 ilp: %w", err)
	}
	out := &Fig9Result{}
	for _, qn := range tpch.SupportedQueries() {
		r2, err := s2.RunEncrypted(qn)
		if err != nil {
			return nil, fmt.Errorf("Q%d S=2: %w", qn, err)
		}
		rg, err := s14g.RunEncrypted(qn)
		if err != nil {
			return nil, fmt.Errorf("Q%d S=1.4 greedy: %w", qn, err)
		}
		ri, err := s14i.RunEncrypted(qn)
		if err != nil {
			return nil, fmt.Errorf("Q%d S=1.4 ilp: %w", qn, err)
		}
		row := Fig9Row{Query: qn, S2: r2.Total(), S14Greedy: rg.Total(), S14ILP: ri.Total()}
		base := row.S2.Seconds()
		if base > 0 &&
			(row.S14Greedy.Seconds() > base*1.1 || row.S14ILP.Seconds() > base*1.1) {
			row.AffectedAny = true
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the affected queries (and a summary of the rest).
func (r *Fig9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: queries affected by space budget S=2 -> S=1.4\n")
	fmt.Fprintf(&b, "%-6s %12s %18s %14s\n", "query", "S=2", "S=1.4 SpaceGreedy", "S=1.4 MONOMI")
	unaffected := 0
	for _, row := range r.Rows {
		if !row.AffectedAny {
			unaffected++
			continue
		}
		fmt.Fprintf(&b, "Q%-5d %12s %18s %14s\n", row.Query,
			row.S2.Round(time.Millisecond), row.S14Greedy.Round(time.Millisecond),
			row.S14ILP.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "(%d queries unaffected by the budget change)\n", unaffected)
	return b.String()
}

// DesignerStats reports the ILP's scale and solve effort (§8.1 mentions
// 713 variables and 612 constraints, 52 s setup).
type DesignerStats struct {
	Vars, Constraints, Nodes int
	Elapsed                  time.Duration
}

// Stats extracts designer statistics from the MONOMI bench.
func (s *Suite) Stats() DesignerStats {
	d := s.Monomi.Design
	return DesignerStats{Vars: d.Vars, Constraints: d.Constraints, Nodes: d.Nodes, Elapsed: d.Elapsed}
}

// String renders the stats.
func (d DesignerStats) String() string {
	return fmt.Sprintf("Designer: %d ILP variables, %d constraints, %d B&B nodes, %s setup",
		d.Vars, d.Constraints, d.Nodes, d.Elapsed.Round(time.Millisecond))
}
