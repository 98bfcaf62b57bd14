package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	monomi "repro"
)

// workload is one set of inputs the benchmark runs. README.md records why
// each exists; BENCHMARK.json carries the one-line version.
type workload struct {
	name    string
	queries []int // TPC-H query numbers; nil for hotpath
	served  bool  // disk backend behind a loopback TCP server, two clients
}

var workloads = []workload{
	{name: "tpch-scan", queries: []int{1, 3, 5, 6, 7, 8, 9, 10, 12, 14, 18, 19}},
	{name: "tpch-subq", queries: []int{2, 4, 11, 17, 20, 21, 22}},
	{name: "tpch-scan-served", queries: []int{1, 3, 5, 6, 7, 8, 9, 10, 12, 14, 18, 19}, served: true},
	{name: "hotpath"},
}

// servedClients is the closed-loop client count of the served workload:
// one connection per core of the two-core sandbox.
const servedClients = 2

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shape is one query text the workload repeats.
type shape struct {
	name string
	sql  string
}

func (w workload) shapes() []shape {
	if w.queries == nil {
		return hotShapes
	}
	out := make([]shape, len(w.queries))
	for i, qn := range w.queries {
		sql, ok := monomi.TPCHQuery(qn)
		if !ok {
			panic(fmt.Sprintf("bench: TPC-H Q%d is not supported", qn))
		}
		out[i] = shape{name: fmt.Sprintf("q%02d", qn), sql: sql}
	}
	return out
}

func (w workload) run(ctx context.Context, cfg config) (*record, error) {
	if w.queries == nil {
		return runHotpath(ctx, w, cfg)
	}
	return runTPCH(ctx, w, cfg)
}

// tpchDesignerWorkload hands the designer all supported TPC-H queries, as
// §8.2 does; the three TPC-H workloads therefore share one physical design.
func tpchDesignerWorkload() map[string]string {
	wl := map[string]string{}
	for _, qn := range monomi.TPCHQueries() {
		sql, _ := monomi.TPCHQuery(qn)
		wl[fmt.Sprintf("Q%02d", qn)] = sql
	}
	return wl
}

// --- tally: what the timed phase accumulates ---

type tally struct {
	shapes []shape
	// Per shape: encrypted and plaintext wall over the ops that feed the
	// slowdown ratios, with their counts (the served workload runs its
	// plaintext passes separately, so the counts may differ).
	encSum, plainSum []time.Duration
	encN, plainN     []int
	allSum           []time.Duration // per shape, every timed encrypted op
	allN             []int
	latMS            []float64     // every timed encrypted op, pooled
	passEnc          [][]float64   // per pass, per shape: Σ ms of paired encrypted ops
	passPlain        [][]float64   // per pass, per shape: Σ ms of plaintext ops
	passQPS          []float64     // one sample per pass, round or block: ops ÷ encrypted wall
	passCPU          []float64     // one sample per pass: process CPU ms per encrypted op
	cpu0, plainCPU   time.Duration // CPU clock at pass start; CPU spent on plaintext twins since
	wireBytes        int64
	ops              int // timed encrypted ops
	attempted        int // every encrypted op whose result was checked
	failed           int
}

func newTally(shapes []shape) *tally {
	n := len(shapes)
	return &tally{
		shapes: shapes,
		encSum: make([]time.Duration, n), plainSum: make([]time.Duration, n),
		encN: make([]int, n), plainN: make([]int, n),
		allSum: make([]time.Duration, n), allN: make([]int, n),
	}
}

// op records one timed encrypted operation. paired says a plaintext twin of
// this very op is (or will be) recorded with plain, so its wall belongs in
// the slowdown sums.
func (t *tally) op(shape int, d time.Duration, wire int64, paired bool) {
	t.latMS = append(t.latMS, ms(d))
	t.wireBytes += wire
	t.ops++
	t.allSum[shape] += d
	t.allN[shape]++
	if paired {
		t.encSum[shape] += d
		t.encN[shape]++
		t.passEnc[len(t.passEnc)-1][shape] += ms(d)
	}
}

func (t *tally) plain(shape int, d time.Duration) {
	t.plainSum[shape] += d
	t.plainN[shape]++
	t.passPlain[len(t.passPlain)-1][shape] += ms(d)
}

// startPass opens the per-pass rows that op and plain add to. It collects
// garbage first, outside any timed region: a TPC-H query allocates ~115 MB,
// so several GC cycles land inside every pass, and a cycle that overlaps a
// query takes one of the two cores from its sharded scan and doubles its
// wall. Starting every pass from a collected heap makes the cycles land on
// the same queries each pass, which is what lets passes be compared.
func (t *tally) startPass() {
	runtime.GC()
	t.passEnc = append(t.passEnc, make([]float64, len(t.shapes)))
	t.passPlain = append(t.passPlain, make([]float64, len(t.shapes)))
	t.cpu0, t.plainCPU = cpuTime(), 0
}

// endPass closes a timed pass of ops encrypted operations that took wall
// (the sum of their walls, or the round's wall when clients overlap).
func (t *tally) endPass(ops int, wall time.Duration) {
	cpu := cpuTime() - t.cpu0 - t.plainCPU
	t.passCPU = append(t.passCPU, ms(cpu)/float64(ops))
	t.passQPS = append(t.passQPS, float64(ops)/wall.Seconds())
}

// plainTwin runs an op's plaintext twin, keeping its CPU out of the pass's
// encrypted CPU; timed says its wall belongs in the slowdown sums.
func (t *tally) plainTwin(shape int, sys *monomi.System, sql string, timed bool) (*monomi.Rows, error) {
	c0 := cpuTime()
	start := time.Now()
	rows, err := sys.QueryPlaintext(sql)
	d := time.Since(start)
	t.plainCPU += cpuTime() - c0
	if err == nil && timed {
		t.plain(shape, d)
	}
	return rows, err
}

func (t *tally) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// slowdowns returns Σ encrypted ÷ Σ plaintext wall over the same ops, and
// the geometric mean over shapes of the per-shape ratio. Sums, not medians
// of per-query ratios: see README.md, "Why sums".
func (t *tally) slowdowns() (total, geomean float64, perShape []float64, err error) {
	var enc, plain, logSum float64
	n := 0
	perShape = make([]float64, len(t.shapes))
	for i, s := range t.shapes {
		if t.encN[i] == 0 || t.plainN[i] == 0 {
			continue
		}
		// Scale plaintext to the encrypted op count of the shape.
		e := t.encSum[i].Seconds()
		p := t.plainSum[i].Seconds() * float64(t.encN[i]) / float64(t.plainN[i])
		r, err := ratio(e, p, "slowdown of "+s.name)
		if err != nil {
			return 0, 0, nil, err
		}
		perShape[i] = r
		enc += e
		plain += p
		logSum += math.Log(r)
		n++
	}
	if n == 0 {
		return 0, 0, nil, fmt.Errorf("no shape has both encrypted and plaintext timings")
	}
	total, err = ratio(enc, plain, "slowdown_total")
	return total, math.Exp(logSum / float64(n)), perShape, err
}

// finish writes the timing metrics every workload shares.
func (t *tally) finish(rec *record) error {
	total, geomean, _, err := t.slowdowns()
	if err != nil {
		return err
	}
	rec.info("throughput_qps", median(t.passQPS))
	rec.info("latency_p50_ms", median(t.latMS))
	rec.info("cpu_ms_per_query", median(t.passCPU))
	rec.set("slowdown_total", total)
	rec.set("slowdown_geomean", geomean)
	rec.set("wire_kb_per_query", float64(t.wireBytes)/1024/float64(t.ops))
	rec.PassQPS, rec.PassCPUMS, rec.PassEncMS, rec.PassPlainMS = t.passQPS, t.passCPU, t.passEnc, t.passPlain
	rec.Samples["passes"] = len(t.passQPS)
	rec.Samples["timed_ops"] = t.ops
	rec.Samples["latency_samples"] = len(t.latMS)
	rec.Attempted, rec.Failed = t.attempted, t.failed
	return nil
}

// budget says whether another pass should start: the minimum count first,
// then whole passes until the timed phase has used its seconds.
type budget struct {
	start time.Time
	min   int
	limit time.Duration
	done  int
}

func newBudget(cfg config) *budget {
	return &budget{start: time.Now(), min: cfg.scale.minPasses,
		limit: time.Duration(cfg.seconds * float64(time.Second))}
}

func (b *budget) next() bool {
	if b.done >= b.min && time.Since(b.start) >= b.limit {
		return false
	}
	b.done++
	return true
}

// setSetup closes the set-up phase.
func setSetup(rec *record, start time.Time, cpu0 time.Duration) {
	rec.set("setup_s", time.Since(start).Seconds())
	rec.info("setup_cpu_s", (cpuTime() - cpu0).Seconds())
}

// setMemory measures allocation over one dedicated encrypted-only pass, so
// that neither the plaintext twins nor the result checks are charged.
func setMemory(rec *record, ops int, pass func() error) error {
	alloc, _, err := memoryPass(pass)
	if err != nil {
		return err
	}
	rec.set("alloc_mb_per_query", float64(alloc)/1e6/float64(ops))
	rec.Samples["memory_pass_ops"] = ops
	return nil
}

func setSpace(rec *record, sys *monomi.System) error {
	_, _, plainBytes, encBytes := sys.DesignStats()
	r, err := ratio(float64(encBytes), float64(plainBytes), "space_ratio")
	if err != nil {
		return err
	}
	rec.set("space_ratio", r)
	return nil
}

// --- TPC-H workloads ---

// timedQuery runs one encrypted query and checks it against the reference.
func timedQuery(sys *monomi.System, sql string, ref reference) (d time.Duration, wire int64, ok bool) {
	start := time.Now()
	rows, err := sys.Query(sql)
	d = time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encrypted query failed:", err)
		return d, 0, false
	}
	return d, rows.WireBytes, ref.matches(rows.Data)
}

func runTPCH(ctx context.Context, w workload, cfg config) (*record, error) {
	rec := newRecord(w.name, cfg, false)
	shapes := w.shapes()
	t := newTally(shapes)

	// Set-up: data generation → Encrypt (designer, bulk encryption, load,
	// index build, segment flush) → Serve/ConnectRemote → the first,
	// cold-cache pass. Everything a deployment pays before steady state.
	setupStart, setupCPU := time.Now(), cpuTime()
	db, err := monomi.TPCH(cfg.scale.sf, cfg.seed)
	if err != nil {
		return nil, err
	}
	opts := cfg.options()
	var segDir string
	if w.served {
		// Inside the working directory: the benchmark writes nowhere else.
		segDir, err = os.MkdirTemp(".", ".bench_tmp-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(segDir)
		opts.Backend, opts.DataDir, opts.BlockCacheBytes = "disk", segDir, cfg.scale.cacheBytes
	}
	sys, err := monomi.Encrypt(db, tpchDesignerWorkload(), opts)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	clients := []*monomi.System{sys}
	if w.served {
		srv, err := sys.Serve("127.0.0.1:0", monomi.ServeConfig{})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		clients = nil
		for i := 0; i < servedClients; i++ {
			c, err := sys.ConnectRemote(srv.Addr().String())
			if err != nil {
				return nil, err
			}
			defer c.Close()
			clients = append(clients, c)
		}
	}
	cold := make([]*monomi.Rows, len(shapes))
	for _, c := range clients {
		for i, s := range shapes {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// A failure here is counted below, against the reference.
			cold[i], _ = c.Query(s.sql)
		}
	}
	setSetup(rec, setupStart, setupCPU)

	// References, and the cold pass checked against them.
	refs := make([]reference, len(shapes))
	hashParts := []string{w.name}
	for i, s := range shapes {
		rows, err := sys.QueryPlaintext(s.sql)
		if err != nil {
			return nil, fmt.Errorf("plaintext %s: %w", s.name, err)
		}
		refs[i] = newReference(rows.Data)
		hashParts = append(hashParts, s.sql, refs[i].fingerprint())
		t.check(cold[i] != nil && refs[i].matches(cold[i].Data))
	}
	before := sys.Stats()

	if w.served {
		offsets := rotationOffsets(cfg.seed, len(shapes))
		hashParts = append(hashParts, fmt.Sprint(offsets))
		if err := servedRounds(ctx, cfg, t, clients, refs, offsets); err != nil {
			return nil, err
		}
	} else {
		for b := newBudget(cfg); b.next(); {
			t.startPass()
			var passEnc time.Duration
			for i, s := range shapes {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				d, wire, ok := timedQuery(sys, s.sql, refs[i])
				t.op(i, d, wire, true)
				t.check(ok)
				passEnc += d
				// The plaintext twin runs right after its encrypted run, so
				// both see the same machine weather.
				if _, err := t.plainTwin(i, sys, s.sql, true); err != nil {
					return nil, err
				}
			}
			t.endPass(len(shapes), passEnc)
		}
	}
	after := sys.Stats()

	if err := t.finish(rec); err != nil {
		return nil, err
	}
	rec.InputsHash = hashInputs(hashParts...)
	if err := checkStorage(rec, cfg, w, segDir, before, after); err != nil {
		return nil, err
	}
	if err := setSpace(rec, sys); err != nil {
		return nil, err
	}
	err = setMemory(rec, len(shapes), func() error {
		for _, s := range shapes {
			if _, err := clients[0].Query(s.sql); err != nil {
				return err
			}
		}
		return ctx.Err()
	})
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// rotationOffsets gives each served client its own seeded starting point in
// the query list, so the two sessions do not run the same shape in step.
func rotationOffsets(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, servedClients)
	out[0] = rng.Intn(n)
	for c := 1; c < servedClients; c++ {
		out[c] = (out[c-1] + 1 + rng.Intn(n-1)) % n
	}
	return out
}

// servedRounds is the served workload's timed phase: in each round every
// client runs one pass over its own connection, concurrently, closed loop,
// and then the plaintext engine runs the same shapes alone.
func servedRounds(ctx context.Context, cfg config, t *tally, clients []*monomi.System, refs []reference, offsets []int) error {
	type sample struct {
		shape int
		d     time.Duration
		wire  int64
		ok    bool
	}
	n := len(t.shapes)
	for b := newBudget(cfg); b.next(); {
		if err := ctx.Err(); err != nil {
			return err
		}
		perClient := make([][]sample, len(clients))
		t.startPass()
		var wg sync.WaitGroup
		start := time.Now()
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < n && ctx.Err() == nil; k++ {
					i := (offsets[c] + k) % n
					d, wire, ok := timedQuery(clients[c], t.shapes[i].sql, refs[i])
					perClient[c] = append(perClient[c], sample{i, d, wire, ok})
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(start)
		for _, ss := range perClient {
			for _, s := range ss {
				t.op(s.shape, s.d, s.wire, true)
				t.check(s.ok)
			}
		}
		t.endPass(len(clients)*n, wall)
		// The plaintext engine runs the same shapes right after the round,
		// alone, so numerator and denominator see the same machine weather.
		runtime.GC()
		for i, s := range t.shapes {
			if err := ctx.Err(); err != nil {
				return err
			}
			if _, err := t.plainTwin(i, clients[0], s.sql, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkStorage asserts the storage preconditions of the run and records the
// sizes that make them true: the in-memory workloads must read no page, the
// served one must thrash its block cache.
func checkStorage(rec *record, cfg config, w workload, segDir string, before, after monomi.Stats) error {
	reads := after.PageReads - before.PageReads
	if !w.served {
		if reads != 0 {
			return fmt.Errorf("precondition: in-memory workload read %d pages", reads)
		}
		return nil
	}
	var largest int64
	files, err := filepath.Glob(filepath.Join(segDir, "*"))
	if err != nil {
		return err
	}
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil && fi.Size() > largest {
			largest = fi.Size()
		}
	}
	lookups := (after.CacheHits - before.CacheHits) + (after.CacheMisses - before.CacheMisses)
	hit := 0.0
	if lookups > 0 {
		hit = float64(after.CacheHits-before.CacheHits) / float64(lookups)
	}
	rec.note("disk backend: block cache %d B per table, largest segment %d B, %d B encrypted; timed-phase cache hit fraction %.3f, %d page reads",
		cfg.scale.cacheBytes, largest, after.EncBytes, hit, reads)
	rec.note("segment reads are served by the OS page cache: latencies are this sandbox's, not a device's")
	rec.note("closed loop, %d clients over loopback TCP", servedClients)
	if !cfg.scale.checks {
		return nil
	}
	if largest < 4*cfg.scale.cacheBytes {
		return fmt.Errorf("precondition: largest segment %d B is under 4x the %d B block cache", largest, cfg.scale.cacheBytes)
	}
	if hit >= 0.25 {
		return fmt.Errorf("precondition: block-cache hit fraction %.3f, want < 0.25", hit)
	}
	return nil
}

// --- hotpath ---

const (
	evGroups = 1000
	evValues = 20000
	evSpan   = 20 // width of the range shape in e_val values
)

var hotShapes = []shape{
	{"point", `SELECT e_id, e_val FROM ev WHERE e_id = :id`},
	{"range", `SELECT e_id, e_val FROM ev WHERE e_val BETWEEN :lo AND :hi`},
	{"sum1", `SELECT SUM(e_val), COUNT(*) FROM ev WHERE e_grp = :g`},
}

// evRow is row i of ev(e_id, e_grp, e_val).
func evRow(i int) (id, grp, val int) { return i, i % evGroups, 7919 * i % evValues }

// hotOp is one generated operation: a prepared shape, its parameters, and
// the same query with the literals substituted for the plaintext engine.
type hotOp struct {
	shape  int
	params map[string]any
}

// hotMix is the 60/30/10 point/range/sum1 mix as a fixed cycle of ten ops.
// The shape of op k is fixed; only its parameters come from the seed, so
// every seed runs the same number of each shape and the counts a run reports
// (rows, bytes on the wire, allocations) do not wander with the draw.
var hotMix = [10]int{0, 1, 0, 0, 1, 0, 2, 0, 1, 0}

// nextHotOp generates op k of a block.
func nextHotOp(rng *rand.Rand, rows, k int) hotOp {
	switch hotMix[k%len(hotMix)] {
	case 0:
		return hotOp{0, map[string]any{"id": rng.Intn(rows)}}
	case 1:
		lo := rng.Intn(evValues - evSpan)
		return hotOp{1, map[string]any{"lo": lo, "hi": lo + evSpan - 1}}
	default:
		return hotOp{2, map[string]any{"g": rng.Intn(evGroups)}}
	}
}

// hasTwin says whether op k of a block is also run on the plaintext engine
// and compared: one op in every ten, at a position that moves through the
// mix cycle so that every shape gets its share of twins.
func hasTwin(k int) bool { return k%len(hotMix) == (k/len(hotMix))%len(hotMix) }

// literalSQL substitutes the op's parameters into its shape.
func (o hotOp) literalSQL() string {
	sql := hotShapes[o.shape].sql
	for name, v := range o.params {
		sql = strings.ReplaceAll(sql, ":"+name, fmt.Sprint(v))
	}
	return sql
}

// hotDesignerWorkload is the three shapes with representative literals.
func hotDesignerWorkload() map[string]string {
	return map[string]string{
		"point": hotOp{0, map[string]any{"id": 1}}.literalSQL(),
		"range": hotOp{1, map[string]any{"lo": 100, "hi": 100 + evSpan - 1}}.literalSQL(),
		"sum1":  hotOp{2, map[string]any{"g": 1}}.literalSQL(),
	}
}

func runHotpath(ctx context.Context, w workload, cfg config) (*record, error) {
	rec := newRecord(w.name, cfg, false)
	t := newTally(hotShapes)
	rows := cfg.scale.evRows
	hash := []string{w.name}

	setupStart, setupCPU := time.Now(), cpuTime()
	db := monomi.NewDatabase()
	db.MustCreateTable("ev", monomi.Col("e_id", monomi.Int), monomi.Col("e_grp", monomi.Int), monomi.Col("e_val", monomi.Int))
	for i := 0; i < rows; i++ {
		id, grp, val := evRow(i)
		db.MustInsert("ev", id, grp, val)
	}
	sys, err := monomi.Encrypt(db, hotDesignerWorkload(), cfg.options())
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	stmts := make([]*monomi.Stmt, len(hotShapes))
	for i, s := range hotShapes {
		if stmts[i], err = sys.Prepare(s.sql); err != nil {
			return nil, err
		}
		defer stmts[i].Close()
	}

	// block runs the seed's first n generated ops: every block is the same
	// pass, so counts do not depend on how many blocks the budget allowed.
	// Timed blocks feed the tally; the cold block (first, part of set-up)
	// only has its results checked.
	block := func(n int, timed bool) (time.Duration, error) {
		rng := rand.New(rand.NewSource(cfg.seed))
		var blockEnc time.Duration
		for k := 0; k < n; k++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			op := nextHotOp(rng, rows, k)
			twin := hasTwin(k)
			start := time.Now()
			res, err := stmts[op.shape].Query(op.params)
			d := time.Since(start)
			blockEnc += d
			if timed {
				var wire int64
				if res != nil {
					wire = res.WireBytes
				}
				t.op(op.shape, d, wire, twin)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench: encrypted op failed:", err)
				t.check(false)
				continue
			}
			if !twin {
				continue
			}
			sql := op.literalSQL()
			if !timed {
				hash = append(hash, sql)
			}
			plain, err := t.plainTwin(op.shape, sys, sql, timed)
			if err != nil {
				return 0, fmt.Errorf("plaintext %s: %w", sql, err)
			}
			t.check(newReference(plain.Data).matches(res.Data))
		}
		return blockEnc, nil
	}
	if _, err := block(cfg.scale.hotBlock, false); err != nil {
		return nil, err
	}
	setSetup(rec, setupStart, setupCPU)

	cacheBefore, statsBefore := sys.PlanCacheStats(), sys.Stats()
	for b := newBudget(cfg); b.next(); {
		t.startPass()
		enc, err := block(cfg.scale.hotBlock, true)
		if err != nil {
			return nil, err
		}
		t.endPass(cfg.scale.hotBlock, enc)
	}
	cacheAfter, statsAfter := sys.PlanCacheStats(), sys.Stats()

	if err := t.finish(rec); err != nil {
		return nil, err
	}
	rec.InputsHash = hashInputs(hash...)
	rec.note("closed loop, 1 client, in process; prepared shapes in a fixed 60/30/10 point/range/sum1 cycle with seeded parameters; plaintext twin on one op in %d", len(hotMix))
	if cfg.scale.checks {
		// The hot path is only hot if every timed op reused its plan.
		if hits := cacheAfter.Hits - cacheBefore.Hits; hits != int64(t.ops) {
			return nil, fmt.Errorf("precondition: %d plan-cache hits over %d timed ops (misses %d)",
				hits, t.ops, cacheAfter.Misses-cacheBefore.Misses)
		}
	}
	if err := checkStorage(rec, cfg, w, "", statsBefore, statsAfter); err != nil {
		return nil, err
	}
	if err := setSpace(rec, sys); err != nil {
		return nil, err
	}
	memOps := cfg.scale.hotBlock
	err = setMemory(rec, memOps, func() error {
		rng := rand.New(rand.NewSource(cfg.seed))
		for k := 0; k < memOps; k++ {
			op := nextHotOp(rng, rows, k)
			if _, err := stmts[op.shape].Query(op.params); err != nil {
				return err
			}
		}
		return ctx.Err()
	})
	if err != nil {
		return nil, err
	}
	return rec, nil
}
