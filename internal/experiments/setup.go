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
	"time"

	"repro/internal/client"
	"repro/internal/designer"
	"repro/internal/enc"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/value"
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
	// Net overrides the simulated link/disk; zero value uses Default.
	Net netsim.Config
	// Parallelism is the sharded-execution worker count for the server,
	// the client's local operators, and the plaintext baseline; 0 means
	// GOMAXPROCS, 1 forces sequential execution.
	Parallelism int
	// BatchSize bounds the execution batches of the same three engines;
	// 0 is unbounded (one batch per worker).
	BatchSize int
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

// Bench is a fully constructed system under test.
type Bench struct {
	Config Config
	Plain  *storage.Catalog
	Engine *engine.Engine // plaintext engine (the unencrypted baseline)
	Keys   *enc.KeyStore
	Design *designer.Result
	DB     *enc.DB
	Client *client.Client
	Net    netsim.Config
}

// Setup generates data, runs the designer, encrypts the database, and
// stands up the client/server pair.
func Setup(cfg Config) (*Bench, error) {
	if cfg.PaillierBits == 0 {
		cfg.PaillierBits = 1024
	}
	if cfg.Net == (netsim.Config{}) {
		cfg.Net = netsim.Default()
	}
	cat, err := tpch.Generate(cfg.SF, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ks, err := enc.NewKeyStore([]byte("monomi-experiments"), cfg.PaillierBits)
	if err != nil {
		return nil, err
	}
	cost := planner.DefaultCostModel(cfg.Net)
	cost.HomCipherBytes = ks.Paillier().CiphertextSize()

	qnums := cfg.Queries
	if qnums == nil {
		qnums = tpch.SupportedQueries()
	}
	labeled := make(map[string]string, len(qnums))
	for _, qn := range qnums {
		labeled[fmt.Sprintf("Q%02d", qn)] = tpch.Queries[qn]
	}
	w, err := designer.ParseWorkload(labeled)
	if err != nil {
		return nil, err
	}
	dres, err := designer.Run(cat, w, ks, cost, cfg.Designer)
	if err != nil {
		return nil, err
	}
	db, err := enc.EncryptDatabaseParallel(cat, dres.Design, ks, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	srv := server.New(db, cfg.Net)
	dres.Context.EnablePrefilter = !cfg.DisablePrefilter
	cl := client.New(ks, srv, dres.Context, cfg.Net)
	cl.Greedy = cfg.GreedyExecution
	b := &Bench{
		Config: cfg,
		Plain:  cat,
		Engine: engine.New(cat),
		Keys:   ks,
		Design: dres,
		DB:     db,
		Client: cl,
		Net:    cfg.Net,
	}
	b.SetParallelism(cfg.Parallelism)
	b.SetBatchSize(cfg.BatchSize)
	return b, nil
}

// SetParallelism sets the sharded-execution worker count on the encrypted
// client/server pair and the plaintext baseline engine (see
// Config.Parallelism). Not safe while queries are in flight.
func (b *Bench) SetParallelism(p int) {
	b.Client.Srv.SetParallelism(p)
	b.Client.Parallelism = p
	b.Engine.Parallelism = p
}

// SetBatchSize sets the execution batch size on the encrypted
// client/server pair and the plaintext baseline engine (see
// Config.BatchSize; 0 = unbounded). Not safe while queries are in
// flight.
func (b *Bench) SetBatchSize(bs int) {
	b.Client.Srv.SetBatchSize(bs)
	b.Client.BatchSize = bs
	b.Engine.BatchSize = bs
}

// PlainResult is a plaintext-baseline execution with simulated timings.
type PlainResult struct {
	Cols       []string
	Rows       [][]value.Value
	ServerTime time.Duration
	Transfer   time.Duration
	Total      time.Duration
	CPUTime    time.Duration // measured executor CPU (Figure 7 denominator)
}

// RunPlain executes a TPC-H query on the unencrypted database, modeling the
// same disk and link.
func (b *Bench) RunPlain(qn int) (*PlainResult, error) {
	q, err := sqlparser.Parse(tpch.Queries[qn])
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := b.Engine.Execute(q, nil)
	if err != nil {
		return nil, err
	}
	cpu := time.Since(start)
	serverTime := b.Net.ScanTime(res.Stats.BytesScanned) + b.Net.RowTime(res.Stats.RowsScanned)
	transfer := b.Net.TransferTime(res.Bytes())
	return &PlainResult{
		Cols:       res.Cols,
		Rows:       res.Rows,
		ServerTime: serverTime,
		Transfer:   transfer,
		Total:      serverTime + transfer,
		CPUTime:    cpu,
	}, nil
}

// RunEncrypted executes a TPC-H query through the split client/server path.
func (b *Bench) RunEncrypted(qn int) (*client.Result, error) {
	return b.Client.Query(tpch.Queries[qn], nil)
}
