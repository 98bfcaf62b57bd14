// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§8). Each benchmark regenerates its experiment's
// measurements; `go test -bench=. -benchmem` prints them alongside the
// harness's own timing. System setup (data generation, designer,
// encryption) happens once outside the timer.
//
// Scale: benchmarks run TPC-H at SF 0.002 (multi-system sweep benchmarks at
// SF 0.0005) with 512-bit Paillier keys so the full suite completes in
// minutes within modest memory. The shapes (who wins, by what factor)
// are scale-stable; see EXPERIMENTS.md for the recorded paper-vs-measured
// comparison.
package monomi

import (
	"fmt"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/tpch"
)

// reclaim returns heap from earlier benchmarks to the OS before a
// multi-system sweep; the suite otherwise exceeds modest memory limits.
func reclaim() { debug.FreeOSMemory() }

const (
	benchSF   = tpch.ScaleFactor(0.002)
	benchSeed = 1
	benchBits = 512
)

// benchBase is the run-wide configuration every experiment here is given.
func benchBase(sf tpch.ScaleFactor) experiments.Config {
	return experiments.Config{SF: sf, Seed: benchSeed, PaillierBits: benchBits}
}

var benchSuite = struct {
	once  sync.Once
	suite *experiments.Suite
	err   error
}{}

func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchSuite.once.Do(func() {
		benchSuite.suite, benchSuite.err = experiments.NewSuite(benchBase(benchSF))
	})
	if benchSuite.err != nil {
		b.Fatal(benchSuite.err)
	}
	return benchSuite.suite
}

// runAll executes every supported query on a bench and fails on error.
func runAll(b *testing.B, run func(int) error) {
	b.Helper()
	for _, qn := range tpch.SupportedQueries() {
		if err := run(qn); err != nil {
			b.Fatalf("Q%d: %v", qn, err)
		}
	}
}

// BenchmarkFigure4_Plaintext is Figure 4's baseline: the 19 supported
// TPC-H queries on the unencrypted database.
func BenchmarkFigure4_Plaintext(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAll(b, func(qn int) error { _, err := s.Monomi.RunPlain(qn); return err })
	}
}

// BenchmarkFigure4_MONOMI runs the full workload through MONOMI's split
// execution (designer + runtime planner + all §5 optimizations).
func BenchmarkFigure4_MONOMI(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAll(b, func(qn int) error { _, err := s.Monomi.RunEncrypted(qn); return err })
	}
}

// BenchmarkFigure4_ExecutionGreedy runs the workload with every technique
// applied greedily and no cost-based planner (§8.3's comparison point).
func BenchmarkFigure4_ExecutionGreedy(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAll(b, func(qn int) error { _, err := s.Greedy.RunEncrypted(qn); return err })
	}
}

// BenchmarkFigure4_CryptDBClient runs the workload on the paper's
// modified-CryptDB baseline (no precomputation, per-row Paillier).
func BenchmarkFigure4_CryptDBClient(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAll(b, func(qn int) error { _, err := s.CryptDB.RunEncrypted(qn); return err })
	}
}

// BenchmarkParallelism_TPCHGroupedAgg runs TPC-H Q1 (the grouped-
// aggregation workhorse: full lineitem scan, four groups, eight
// aggregates) through MONOMI's encrypted split execution at increasing
// sharded-execution worker counts. On a multi-core host the p>1 variants
// demonstrate the multi-core speedup of the sharded server engine and
// batched Paillier aggregation; on a single core they bound the overhead.
func BenchmarkParallelism_TPCHGroupedAgg(b *testing.B) {
	s := suite(b)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			s.Monomi.SetParallelism(p)
			// Run once untimed so the first level measured does not pay
			// the cold parse, plan and template fill alone (decryption
			// memos live for one decode, so there is nothing else to warm).
			if _, err := s.Monomi.RunEncrypted(1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Monomi.RunEncrypted(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	s.Monomi.SetParallelism(0)
}

// BenchmarkStreaming_TPCHGroupedAgg runs encrypted TPC-H Q1 with the
// streaming batch-at-a-time pipeline off and on: with streaming the
// server's RemoteSQL scan pulls lineitem in row batches that feed the
// encrypted filter and per-group aggregation states directly, and the
// client's residual grouped aggregation streams its temp-table scan the
// same way.
func BenchmarkStreaming_TPCHGroupedAgg(b *testing.B) {
	s := suite(b)
	for _, mode := range []struct {
		name  string
		batch int
	}{{"materialized", 0}, {"streamed", 1024}} {
		b.Run(mode.name, func(b *testing.B) {
			s.Monomi.SetBatchSize(mode.batch)
			// Run once untimed (see the parallelism benchmark above).
			if _, err := s.Monomi.RunEncrypted(1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Monomi.RunEncrypted(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	s.Monomi.SetBatchSize(0)
}

// BenchmarkStreaming_TPCHGroupedAggPlain is the plaintext counterpart,
// isolating the engine's streamed scan/aggregate pipeline from the
// crypto.
func BenchmarkStreaming_TPCHGroupedAggPlain(b *testing.B) {
	s := suite(b)
	for _, mode := range []struct {
		name  string
		batch int
	}{{"materialized", 0}, {"streamed", 1024}} {
		b.Run(mode.name, func(b *testing.B) {
			s.Monomi.SetBatchSize(mode.batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Monomi.RunPlain(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	s.Monomi.SetBatchSize(0)
}

// BenchmarkParallelism_TPCHGroupedAggPlain is the plaintext counterpart,
// isolating the engine's sharded scan/aggregate loops from the crypto.
func BenchmarkParallelism_TPCHGroupedAggPlain(b *testing.B) {
	s := suite(b)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			s.Monomi.SetParallelism(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Monomi.RunPlain(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	s.Monomi.SetParallelism(0)
}

// BenchmarkFigure5_CumulativeTechniques measures the full §8.3 sweep: six
// configurations from CryptDB+Client to +Planner, each running all 19
// queries (Figure 6's per-technique highlights derive from the same data).
func BenchmarkFigure5_CumulativeTechniques(b *testing.B) {
	reclaim()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(benchBase(0.0005)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7_ClientCPU measures the client-CPU-ratio experiment.
func BenchmarkFigure7_ClientCPU(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_ServerSpace measures the space census across the three
// configurations (sizes come from the already-encrypted databases; the
// benchmark covers the accounting path).
func BenchmarkTable2_ServerSpace(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Table2()
		if len(rows) != 4 {
			b.Fatal("table 2 must have 4 rows")
		}
	}
}

// BenchmarkTable3_SecurityCensus measures the weakest-scheme census over
// the MONOMI design.
func BenchmarkTable3_SecurityCensus(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3(s.Monomi.Design.Design)
		if len(rows) != 8 {
			b.Fatal("census must cover 8 tables")
		}
	}
}

// BenchmarkDesignerILP measures one full designer run (unit extraction,
// candidate planning, ILP solve) on the complete workload.
func BenchmarkDesignerILP(b *testing.B) {
	s := suite(b)
	_ = s
	reclaim()
	for i := 0; i < b.N; i++ {
		cfg := experiments.MonomiConfig(benchSF)
		cfg.Seed = benchSeed
		cfg.PaillierBits = benchBits
		if _, err := experiments.Setup(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// releaseSuite frees the cached three-system suite so the final
// multi-system sweeps fit in modest memory alongside their own builds.
func releaseSuite() {
	benchSuite.suite = nil
	reclaim()
}

// BenchmarkFigureZ8_DesignerSubsets measures Figure 8's designer-estimate
// sweep (greedy forward selection, k=0..2 plus k=all). The measured-runtime
// half runs via `monomi-bench -exp fig8` — building k+2 encrypted systems
// per iteration does not fit the benchmark process's memory budget. Named
// with a Z so it runs after the suite-based benchmarks and may release them.
func BenchmarkFigureZ8_DesignerSubsets(b *testing.B) {
	releaseSuite()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.EstimateSweep(benchBase(benchSF), 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigureZ9_SpaceBudgets measures the S=2 vs S=1.4 ILP/Space-Greedy
// comparison end to end (three designs, three encrypted databases, all
// queries). Runs last (Z) so the shared suite can be released first.
func BenchmarkFigureZ9_SpaceBudgets(b *testing.B) {
	releaseSuite()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(benchBase(0.0005)); err != nil {
			b.Fatal(err)
		}
	}
}
