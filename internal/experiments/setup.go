// Package experiments is the harness that reproduces every table and
// figure of the paper's evaluation (§8) over the TPC-H substrate:
//
//	Figure 4 — per-query slowdown vs. plaintext (CryptDB+Client /
//	           Execution-Greedy / MONOMI)
//	Figure 5 — mean and geometric-mean runtime as §5 techniques stack
//	Figure 6 — the single best-benefiting query per technique
//	Figure 7 — client CPU ratio vs. local plaintext execution
//	Figure 8 — designer quality with the best k input queries
//	Figure 9 — space budget S=2 vs S=1.4, Space-Greedy vs ILP
//	Table 2  — server space by configuration
//	Table 3  — per-table scheme census (security report)
//
// Absolute times differ from the paper's testbed (our substrate is a
// simulator plus real crypto on the local CPU); the comparisons preserve
// the shapes: who wins, by what factor, where the crossovers fall.
package experiments

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/deploy"
	"repro/internal/designer"
	"repro/internal/tpch"
)

// Config selects a system configuration to benchmark.
type Config struct {
	Name         string
	SF           tpch.ScaleFactor
	Seed         int64
	PaillierBits int
	Designer     designer.Options
	// GreedyExecution disables the runtime planner (Execution-Greedy).
	GreedyExecution bool
	// DisablePrefilter turns §5.4 off (Figure 5's pre-"+Other" levels).
	DisablePrefilter bool
	// Queries restricts the designer's input workload (Figure 8); nil
	// means all supported queries.
	Queries []int
}

// MonomiConfig is the full system at the given scale.
func MonomiConfig(sf tpch.ScaleFactor) Config {
	opts := designer.MonomiOptions()
	opts.SpaceBudget = 2.0
	return Config{
		Name: "MONOMI", SF: sf, Seed: 1, PaillierBits: 1024,
		Designer: opts,
	}
}

// ExecutionGreedyConfig applies every technique greedily (§8.3's
// Execution-Greedy): all candidate items materialized, no runtime planner.
func ExecutionGreedyConfig(sf tpch.ScaleFactor) Config {
	return Config{
		Name: "Execution-Greedy", SF: sf, Seed: 1, PaillierBits: 1024,
		Designer: designer.Options{
			AllItems: true, GroupedAddition: true, MultiRowPacking: true,
		},
		GreedyExecution: true,
	}
}

// CryptDBClientConfig is the paper's modified-CryptDB baseline: only
// whole-column encryptions (no precomputation), per-row per-column Paillier
// (no packing), greedy execution.
func CryptDBClientConfig(sf tpch.ScaleFactor) Config {
	return Config{
		Name: "CryptDB+Client", SF: sf, Seed: 1, PaillierBits: 1024,
		Designer: designer.Options{
			AllItems: true, NoPrecomputation: true, OnionBaseline: true,
		},
		GreedyExecution:  true,
		DisablePrefilter: true, // pre-filtering is a MONOMI technique
	}
}

// under returns system configuration c with base's run-wide values (scale,
// seed, key width), so they reach every system an experiment builds.
func (base Config) under(c Config) Config {
	c.SF, c.Seed, c.PaillierBits = base.SF, base.Seed, base.PaillierBits
	return c
}

// spec is what the harness passes the assembler: its own master key, no
// secondary indexes (the §8 figures measure the paper's full-scan system),
// pre-filtering per configuration.
func (cfg Config) spec() deploy.Spec {
	return deploy.Spec{
		MasterKey:       []byte("monomi-experiments"),
		PaillierBits:    cfg.PaillierBits,
		Designer:        cfg.Designer,
		GreedyExecution: cfg.GreedyExecution,
		Prefilter:       !cfg.DisablePrefilter,
	}
}

// workload labels the designer's input queries (cfg.Queries, or all).
func (cfg Config) workload() map[string]string {
	qnums := cfg.Queries
	if qnums == nil {
		qnums = tpch.SupportedQueries()
	}
	labeled := make(map[string]string, len(qnums))
	for _, qn := range qnums {
		labeled[fmt.Sprintf("Q%02d", qn)] = tpch.Queries[qn]
	}
	return labeled
}

// Bench is a fully constructed system under test: the assembled deployment
// and the configuration that produced it.
type Bench struct {
	Config Config
	*deploy.Deployment
}

// Setup generates data, runs the designer, encrypts the database, and
// stands up the client/server pair.
func Setup(cfg Config) (*Bench, error) {
	cat, err := tpch.Generate(cfg.SF, cfg.Seed)
	if err != nil {
		return nil, err
	}
	dep, err := deploy.Build(cat, cfg.workload(), cfg.spec())
	if err != nil {
		return nil, err
	}
	return &Bench{Config: cfg, Deployment: dep}, nil
}

// RunPlain executes a TPC-H query on the unencrypted database, modeling the
// same disk and link.
func (b *Bench) RunPlain(qn int) (*deploy.PlainResult, error) {
	return b.ExecutePlain(tpch.Queries[qn])
}

// RunEncrypted executes a TPC-H query through the split client/server path.
func (b *Bench) RunEncrypted(qn int) (*client.Result, error) {
	return b.Client.Query(tpch.Queries[qn], nil)
}
