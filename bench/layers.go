package main

// layers.go is the only file of the benchmark that reaches below the root
// facade. The traced run assembles the deployment from the layers' own
// exported constructors — the way monomi.Encrypt does under
// DefaultOptions() — so that it can stand between the layers: a recording
// client.Executor between client and server, replayed RemoteSQL straight
// into server.Execute, and micro-probes on crypto, storage, wire and
// transport. Every per-layer number is taken from outside the program, by
// timing calls into exported functions; nothing here adds instrumentation
// to the program itself. A change to any API used in this file needs a
// [benchmark] issue first (README.md, "Seams").

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/ast"
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
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wire"
)

// --- the deployment under trace ---

type stack struct {
	net    netsim.Config
	plain  *engine.Engine // plaintext baseline over the generated catalog
	keys   *enc.KeyStore
	design *designer.Result
	encDB  *enc.DB
	srv    *server.Server
	exec   *tracedExec
	cl     *client.Client
	tsrv   *transport.Server // served workload only
	conn   *transport.Conn

	plainRows int
	segDir    string
}

func (st *stack) close() {
	if st.cl != nil {
		st.cl.Close()
	}
	if st.conn != nil {
		st.conn.Close()
	}
	if st.tsrv != nil {
		st.tsrv.Close()
	}
	if st.keys != nil {
		st.keys.Close()
	}
	if st.encDB != nil {
		st.encDB.Cat.Close()
	}
	if st.segDir != "" {
		os.RemoveAll(st.segDir)
	}
}

// evCatalog builds the hotpath table on the storage layer directly.
func evCatalog(rows int) (*storage.Catalog, error) {
	cat := storage.NewCatalog()
	t, err := cat.Create(storage.Schema{Name: "ev", Cols: []storage.Column{
		{Name: "e_id", Type: storage.TInt}, {Name: "e_grp", Type: storage.TInt}, {Name: "e_val", Type: storage.TInt},
	}})
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		id, grp, val := evRow(i)
		if err := t.Insert([]value.Value{value.NewInt(int64(id)), value.NewInt(int64(grp)), value.NewInt(int64(val))}); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// buildStack sets the deployment up step by step, timing each step: these
// are the set-up spans behind every workload's setup_s.
func buildStack(w workload, cfg config, tr *tracer, rec *record) (st *stack, err error) {
	st = &stack{net: netsim.Default()}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	opts := cfg.options()
	timed := func(name string, fn func() error) (float64, error) {
		id := tr.begin(name, 0, 0)
		err := fn()
		return tr.end(id).Seconds(), err
	}

	var cat *storage.Catalog
	designerSQL := hotDesignerWorkload()
	gen, err := timed("setup.generate", func() (err error) {
		if w.queries == nil {
			cat, err = evCatalog(cfg.scale.evRows)
		} else {
			cat, err = tpch.Generate(tpch.ScaleFactor(cfg.scale.sf), cfg.seed)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if w.queries != nil {
		designerSQL = tpchDesignerWorkload()
		rec.set("tpch.generate_s", gen)
	} else {
		rec.set("tpch.generate_s", 0) // the tpch package is not on this workload's path
	}
	for _, name := range cat.Names() {
		if t, err := cat.Table(name); err == nil {
			st.plainRows += t.NumRows()
		}
	}

	if st.keys, err = enc.NewKeyStore(opts.MasterKey, opts.PaillierBits); err != nil {
		return nil, err
	}
	cost := planner.DefaultCostModel(st.net)
	cost.HomCipherBytes = st.keys.Paillier().CiphertextSize()
	wl, err := designer.ParseWorkload(designerSQL)
	if err != nil {
		return nil, err
	}
	dopts := designer.MonomiOptions()
	dopts.SpaceBudget = opts.SpaceBudget
	run, err := timed("setup.designer", func() (err error) {
		st.design, err = designer.Run(cat, wl, st.keys, cost, dopts)
		return err
	})
	if err != nil {
		return nil, err
	}
	hom := 0
	for _, it := range st.design.Design.Items {
		if it.Scheme == enc.HOM {
			hom++
		}
	}
	rec.set("designer.run_s", run)
	rec.set("designer.ilp_vars", float64(st.design.Vars))
	rec.set("designer.hom_items", float64(hom))

	var becfg storage.BackendConfig
	if w.served {
		if st.segDir, err = os.MkdirTemp(".", ".bench_tmp-"); err != nil {
			return nil, err
		}
		becfg = storage.BackendConfig{Kind: storage.BackendDisk, Dir: st.segDir, CacheBytes: cfg.scale.cacheBytes}
	}
	encS, err := timed("setup.encrypt", func() (err error) {
		st.encDB, err = enc.EncryptDatabaseOn(cat, st.design.Design, st.keys, opts.Parallelism, becfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	rec.set("enc.encrypt_s", encS)
	rec.set("enc.rows_per_s", float64(st.plainRows)/encS)
	// EncryptDatabaseOn flushes each table as it finishes loading; what is
	// left for an explicit flush is the segment metadata.
	flush, err := timed("setup.flush", func() error { return st.encDB.Cat.Flush() })
	if err != nil {
		return nil, err
	}
	rec.set("storage.flush_s", flush)

	// The rest mirrors monomi.Encrypt under DefaultOptions (Indexes on):
	// mirror indexes on the plaintext baseline, index-aware server engine
	// and planner, §5.4 pre-filtering.
	st.plain = engine.New(cat)
	st.srv = server.New(st.encDB, st.net)
	if opts.Indexes {
		if err := mirrorPlainIndexes(cat, st.design.Design); err != nil {
			return nil, err
		}
		st.plain.UseIndexes = true
		st.srv.SetIndexes(true)
		st.design.Context.Indexes = true
	}
	st.design.Context.EnablePrefilter = true

	var inner client.Executor = st.srv
	rec.set("transport.connect_ms", 0)
	if w.served {
		if st.tsrv, err = transport.Listen(st.srv, "127.0.0.1:0", transport.Config{}); err != nil {
			return nil, err
		}
		connect, err := timed("setup.connect", func() (err error) {
			st.conn, err = transport.Dial(st.tsrv.Addr().String())
			return err
		})
		if err != nil {
			return nil, err
		}
		rec.set("transport.connect_ms", connect*1e3)
		inner = st.conn
	}
	st.exec = &tracedExec{inner: inner, tr: tr}
	if se, ok := inner.(client.StmtExecutor); ok {
		// Keep the prepared-statement path the served client really takes.
		stmtExec := &tracedStmtExec{tracedExec: st.exec, stmts: se, sql: map[uint64]*ast.Query{}}
		st.cl = client.NewRemote(st.keys, stmtExec, st.encDB.Meta, st.design.Context, st.net)
	} else {
		st.cl = client.New(st.keys, st.srv, st.design.Context, st.net)
		st.cl.SetExecutor(st.exec)
	}
	return st, nil
}

// mirrorPlainIndexes gives the plaintext tables the indexes the design
// gives the encrypted ones, as monomi.Encrypt does, so the baseline is not
// handicapped by scans the encrypted side avoids.
func mirrorPlainIndexes(cat *storage.Catalog, design *enc.Design) error {
	for _, it := range design.Items {
		cr, ok := it.Expr.(*ast.ColumnRef)
		if !ok {
			continue
		}
		t, err := cat.Table(it.Table)
		if err != nil {
			continue
		}
		switch it.Scheme {
		case enc.DET:
			_, err = t.EnsureIndex(cr.Column, storage.HashIndex)
		case enc.OPE:
			_, err = t.EnsureIndex(cr.Column, storage.OrderedIndex)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// --- the recording executor ---

// remoteCall is one RemoteSQL execution as the client issued it.
type remoteCall struct {
	q      *ast.Query
	params map[string]value.Value
}

// tracedExec stands between the client and wherever RemoteSQL runs. It is
// installed for the whole run; with on false it only forwards, so traced
// and untraced passes differ by the recording alone.
type tracedExec struct {
	inner client.Executor
	tr    *tracer
	on    bool
	// parent and query identify the client.query span in flight; the
	// traced run has one client, so one query at a time.
	parent, query int
	capture       bool
	calls         []remoteCall
}

func (e *tracedExec) span(name string, q *ast.Query, params map[string]value.Value) func() {
	if !e.on {
		return func() {}
	}
	if e.capture && q != nil {
		e.calls = append(e.calls, remoteCall{q, params})
	}
	id := e.tr.begin(name, e.parent, e.query)
	return func() { e.tr.end(id) }
}

func (e *tracedExec) Execute(q *ast.Query, params map[string]value.Value) (*server.Response, error) {
	defer e.span("executor.execute", q, params)()
	return e.inner.Execute(q, params)
}

func (e *tracedExec) ExecuteStream(q *ast.Query, params map[string]value.Value, w io.Writer) (*server.StreamStats, error) {
	defer e.span("executor.execute_stream", q, params)()
	return e.inner.ExecuteStream(q, params, w)
}

// tracedStmtExec adds the prepared-statement calls a transport connection
// offers; it remembers each statement's RemoteSQL so executions by id can
// be replayed in process.
type tracedStmtExec struct {
	*tracedExec
	stmts client.StmtExecutor
	sql   map[uint64]*ast.Query
}

func (e *tracedStmtExec) PrepareStmt(q *ast.Query) (uint64, error) {
	defer e.span("executor.prepare_stmt", nil, nil)()
	id, err := e.stmts.PrepareStmt(q)
	if err == nil {
		e.sql[id] = q
	}
	return id, err
}

func (e *tracedStmtExec) ExecuteStmt(id uint64, params map[string]value.Value) (*server.Response, error) {
	defer e.span("executor.execute_stmt", e.sql[id], params)()
	return e.stmts.ExecuteStmt(id, params)
}

func (e *tracedStmtExec) ExecuteStmtStream(id uint64, params map[string]value.Value, w io.Writer) (*server.StreamStats, error) {
	defer e.span("executor.execute_stmt_stream", e.sql[id], params)()
	return e.stmts.ExecuteStmtStream(id, params, w)
}

func (e *tracedStmtExec) CloseStmt(id uint64) error {
	delete(e.sql, id)
	return e.stmts.CloseStmt(id)
}

// --- the traced run ---

// traceOp is one operation of a pass.
type traceOp struct {
	shape  int
	sql    string
	params map[string]value.Value
	plain  string // literal SQL for the plaintext engine; "" = no twin
}

func traceOps(w workload, cfg config) []traceOp {
	if w.queries != nil {
		var ops []traceOp
		for i, s := range w.shapes() {
			ops = append(ops, traceOp{shape: i, sql: s.sql, plain: s.sql})
		}
		return ops
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	ops := make([]traceOp, cfg.scale.traceOps)
	for k := range ops {
		h := nextHotOp(rng, cfg.scale.evRows, k)
		op := traceOp{shape: h.shape, sql: hotShapes[h.shape].sql, params: map[string]value.Value{}}
		for name, v := range h.params {
			op.params[name] = value.NewInt(int64(v.(int)))
		}
		if hasTwin(k) {
			op.plain = h.literalSQL()
		}
		ops[k] = op
	}
	return ops
}

// layerAcc is what the untraced passes of a traced run accumulate.
type layerAcc struct {
	t                     *tally
	simEnc, simPlain      []time.Duration // per shape, netsim's modelled totals
	clientTime            time.Duration
	decrypts              int64
	simServer, simTransit time.Duration
	plainExec             time.Duration
	plainExecN            int
	gcCycles              uint32
	io                    storage.IOStats
	cacheHits, cacheMiss  int64
	hash                  []string // the cold pass's op stream and plaintext answers
}

func toAny(rows [][]value.Value) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		vals := make([]any, len(row))
		for j, v := range row {
			switch v.K {
			case value.Null:
			case value.Int, value.Bool:
				vals[j] = v.I
			case value.Float:
				vals[j] = v.F
			case value.Str:
				vals[j] = v.S
			case value.Date:
				vals[j] = value.FormatDate(v.I)
			case value.Bytes:
				vals[j] = v.B
			}
		}
		out[i] = vals
	}
	return out
}

// runPlainTwin runs an op's plaintext twin the way QueryPlaintext does
// (parse, then execute) and returns the wall of both and of Execute alone.
func (st *stack) runPlainTwin(sql string) (res *engine.Result, total, exec time.Duration, err error) {
	start := time.Now()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, 0, 0, err
	}
	mid := time.Now()
	res, err = st.plain.Execute(q, nil)
	end := time.Now()
	return res, end.Sub(start), end.Sub(mid), err
}

func (st *stack) simPlainTotal(res *engine.Result) time.Duration {
	return st.net.ScanTime(res.Stats.BytesScanned) + st.net.RowTime(res.Stats.RowsScanned) + st.net.TransferTime(res.Bytes())
}

type passMode int

const (
	coldPass passMode = iota
	untracedPass
	tracedPass
)

// runPass drives one pass of ops through client.Client.Query. Cold and
// untraced passes also run and time the plaintext twins and check results;
// only untraced passes feed acc. It returns the pass's encrypted wall.
func (st *stack) runPass(ctx context.Context, ops []traceOp, mode passMode, acc *layerAcc, tr *tracer, queryID *int) (time.Duration, error) {
	st.exec.on = mode == tracedPass
	switch mode {
	case untracedPass:
		acc.t.startPass()
	case tracedPass:
		runtime.GC() // as startPass does, so both kinds of pass start alike
	}
	var encWall time.Duration
	var ms0 runtime.MemStats
	var io0 storage.IOStats
	var pc0 client.PlanCacheStats
	if mode == untracedPass {
		runtime.ReadMemStats(&ms0)
		io0, pc0 = st.encDB.Cat.IO(), st.cl.PlanCacheStats()
	}
	for _, op := range ops {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		var spanID int
		if mode == tracedPass {
			*queryID++
			spanID = tr.begin("client.query", 0, *queryID)
			st.exec.parent, st.exec.query = spanID, *queryID
		}
		start := time.Now()
		res, err := st.cl.Query(op.sql, op.params)
		d := time.Since(start)
		if mode == tracedPass {
			tr.end(spanID)
		}
		encWall += d
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: encrypted query failed:", err)
			acc.t.check(false)
			continue
		}
		if mode == untracedPass {
			acc.t.op(op.shape, d, res.WireBytes, op.plain != "")
			acc.clientTime += res.ClientTime
			acc.decrypts += res.Decrypts
			acc.simServer += res.ServerTime
			acc.simTransit += res.TransferTime
			if op.plain != "" {
				acc.simEnc[op.shape] += res.Total()
			}
		}
		if op.plain == "" || mode == tracedPass {
			continue
		}
		pres, total, exec, err := st.runPlainTwin(op.plain)
		if err != nil {
			return 0, fmt.Errorf("plaintext %s: %w", op.plain, err)
		}
		ref := newReference(toAny(pres.Rows))
		acc.t.check(ref.matches(toAny(res.Rows)))
		if mode == coldPass && len(acc.hash) < 2000 {
			acc.hash = append(acc.hash, op.plain, ref.fingerprint())
		}
		if mode == untracedPass {
			acc.t.plain(op.shape, total)
			acc.plainExec += exec
			acc.plainExecN++
			acc.simPlain[op.shape] += st.simPlainTotal(pres)
		}
	}
	if mode == untracedPass {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		acc.gcCycles += ms1.NumGC - ms0.NumGC
		io1, pc1 := st.encDB.Cat.IO(), st.cl.PlanCacheStats()
		acc.io.PageReads += io1.PageReads - io0.PageReads
		acc.io.BytesRead += io1.BytesRead - io0.BytesRead
		acc.io.CacheHits += io1.CacheHits - io0.CacheHits
		acc.io.CacheMisses += io1.CacheMisses - io0.CacheMisses
		acc.cacheHits += pc1.Hits - pc0.Hits
		acc.cacheMiss += pc1.Misses - pc0.Misses
	}
	return encWall, nil
}

func (w workload) runTraced(ctx context.Context, cfg config) (*record, error) {
	rec := newRecord(w.name, cfg, true)
	tr := newTracer()
	st, err := buildStack(w, cfg, tr, rec)
	if err != nil {
		return nil, err
	}
	defer st.close()

	shapes := w.shapes()
	ops := traceOps(w, cfg)
	acc := &layerAcc{t: newTally(shapes),
		simEnc: make([]time.Duration, len(shapes)), simPlain: make([]time.Duration, len(shapes))}
	queryID := 0

	// Cold caches: what a user's first run of each shape costs.
	first, err := st.runPass(ctx, ops, coldPass, acc, tr, &queryID)
	if err != nil {
		return nil, err
	}
	rec.set("monomi.first_pass_s", first.Seconds())

	// Untraced and traced passes alternate so both see the same machine.
	var untraced, traced time.Duration
	for p := 0; p < cfg.scale.tracePasses; p++ {
		var u time.Duration
		untracedRun := func() (err error) {
			u, err = st.runPass(ctx, ops, untracedPass, acc, tr, &queryID)
			return err
		}
		if p == 0 {
			// The heap sampler rides on the first untraced pass.
			_, peak, err := memoryPass(untracedRun)
			if err != nil {
				return nil, err
			}
			rec.set("monomi.peak_heap_mb", float64(peak)/1e6)
		} else if err := untracedRun(); err != nil {
			return nil, err
		}
		st.exec.capture = p == 0
		t, err := st.runPass(ctx, ops, tracedPass, acc, tr, &queryID)
		st.exec.capture = false
		if err != nil {
			return nil, err
		}
		untraced += u
		traced += t
	}
	st.exec.on = false
	nOps := float64(acc.t.ops)   // untraced ops
	nTraced := float64(queryID)  // traced ops
	perPass := float64(len(ops)) // ops per pass
	rec.Samples["ops_per_pass"] = len(ops)
	rec.Samples["untraced_ops"] = acc.t.ops
	rec.Samples["traced_ops"] = queryID
	rec.Samples["latency_samples"] = len(acc.t.latMS)

	// monomi: per-shape rows and the pooled tail.
	for _, s := range shapeNames() {
		rec.set("monomi."+s+"_ms", 0)
		rec.set("monomi."+s+"_slowdown", 0)
	}
	_, _, perShape, err := acc.t.slowdowns()
	if err != nil {
		return nil, err
	}
	var slow, simSlow []float64
	for i, s := range shapes {
		if acc.t.allN[i] > 0 {
			rec.set("monomi."+s.name+"_ms", ms(acc.t.allSum[i])/float64(acc.t.allN[i]))
		}
		rec.set("monomi."+s.name+"_slowdown", perShape[i])
		if perShape[i] > 0 {
			slow = append(slow, perShape[i])
		}
		if acc.simPlain[i] > 0 {
			simSlow = append(simSlow, acc.simEnc[i].Seconds()/acc.simPlain[i].Seconds())
		}
	}
	rec.set("monomi.throughput_qps", nOps/untraced.Seconds())
	rec.set("monomi.latency_p50_ms", median(acc.t.latMS))
	rec.set("monomi.slowdown_median", median(slow))
	rec.set("monomi.latency_p90_ms", tailQuantile(acc.t.latMS, 0.90))
	rec.set("monomi.latency_p99_ms", tailQuantile(acc.t.latMS, 0.99))
	rec.set("monomi.gc_cycles_per_query", float64(acc.gcCycles)/nOps)
	overhead, err := ratio(traced.Seconds(), untraced.Seconds(), "trace.overhead_frac")
	if err != nil {
		return nil, err
	}
	rec.set("trace.overhead_frac", overhead-1)

	// client and server, from the spans of the traced passes.
	sum := tr.summary()
	var execSpans spanSummary
	for name, s := range sum {
		if strings.HasPrefix(name, "executor.") {
			execSpans.Count += s.Count
			execSpans.TotalMS += s.TotalMS
		}
	}
	rec.set("client.self_ms", sum["client.query"].SelfMS/nTraced)
	rec.set("client.clienttime_ms", ms(acc.clientTime)/nOps)
	rec.set("client.decrypts_per_query", float64(acc.decrypts)/nOps)
	rec.set("client.remote_calls_per_query", float64(execSpans.Count)/nTraced)
	rec.set("server.execute_ms", execSpans.TotalMS/nTraced)
	lookups := acc.cacheHits + acc.cacheMiss
	hitFrac, err := ratio(float64(acc.cacheHits), float64(lookups), "planner.plancache_hit_frac")
	if err != nil {
		return nil, err
	}
	rec.set("planner.plancache_hit_frac", hitFrac)
	rec.set("engine.plain_execute_ms", ms(acc.plainExec)/float64(acc.plainExecN))

	// netsim's modelled quantities: reported, never added to measured ones.
	rec.set("netsim.sim_server_s_per_query", acc.simServer.Seconds()/nOps)
	rec.set("netsim.sim_transfer_s_per_query", acc.simTransit.Seconds()/nOps)
	rec.set("netsim.sim_total_s_per_query", (acc.simServer+acc.simTransit+acc.clientTime).Seconds()/nOps)
	rec.set("netsim.sim_slowdown_median", median(simSlow))

	// storage counters over the untraced passes (one client: exact).
	rec.set("storage.page_reads_per_query", float64(acc.io.PageReads)/nOps)
	rec.set("storage.page_kb_per_query", float64(acc.io.BytesRead)/1024/nOps)
	rec.set("storage.cache_hit_frac", acc.io.HitRate())
	rec.set("storage.enc_mb", float64(st.encDB.Cat.TotalBytes())/1e6)
	rec.set("storage.intern_ratio", float64(st.encDB.Cat.TotalRawBytes())/float64(st.encDB.Cat.TotalBytes()))

	if err := st.replay(ctx, w, rec, perPass, execSpans.TotalMS/float64(cfg.scale.tracePasses)); err != nil {
		return nil, err
	}
	if err := st.probeParsePlan(ops, shapes, rec); err != nil {
		return nil, err
	}
	if err := st.probeCrypto(cfg, rec); err != nil {
		return nil, err
	}
	if err := st.probeStorage(cfg, rec); err != nil {
		return nil, err
	}
	if err := st.probeTransport(w, rec); err != nil {
		return nil, err
	}

	if cfg.scale.checks {
		if err := checkTraced(w, rec); err != nil {
			return nil, err
		}
	}
	rec.Attempted, rec.Failed = acc.t.attempted, acc.t.failed
	rec.InputsHash = hashInputs(append([]string{w.name}, acc.hash...)...)
	rec.Spans = sum
	if err := checkSpans(tr.spans); err != nil {
		return nil, err
	}
	if cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// checkTraced asserts what the workloads were chosen to show.
func checkTraced(w workload, rec *record) error {
	v := func(name string) float64 { return rec.Metrics[name].Value }
	if !w.served && v("storage.page_reads_per_query") != 0 {
		return fmt.Errorf("precondition: in-memory workload read %g pages per query", v("storage.page_reads_per_query"))
	}
	if w.served && v("storage.cache_hit_frac") >= 0.25 {
		return fmt.Errorf("precondition: block-cache hit fraction %g, want < 0.25", v("storage.cache_hit_frac"))
	}
	if w.queries == nil && v("planner.plancache_hit_frac") != 1 {
		return fmt.Errorf("precondition: hotpath plan-cache hit fraction %g, want 1", v("planner.plancache_hit_frac"))
	}
	return nil
}

// replay runs every RemoteSQL the first traced pass issued straight into
// the in-process server: exact engine counts, the server's execute time
// without any transport, and (served workload) the wire re-framing probe.
// tracedExecMS is the executor-span total of one traced pass.
func (st *stack) replay(ctx context.Context, w workload, rec *record, opsPerPass, tracedExecMS float64) error {
	var stats engine.Stats
	var inproc, encode, decode time.Duration
	var wireRows, wireBytes int64
	for _, c := range st.exec.calls {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		resp, err := st.srv.Execute(c.q, c.params)
		inproc += time.Since(start)
		if err != nil {
			return fmt.Errorf("replaying RemoteSQL: %w", err)
		}
		stats.Add(resp.Result.Stats)
		if !w.served {
			continue
		}
		e, d, n, err := reframe(resp.Result)
		if err != nil {
			return err
		}
		encode += e
		decode += d
		wireBytes += n
		wireRows += int64(len(resp.Result.Rows))
	}
	rec.Samples["replayed_remote_calls"] = len(st.exec.calls)
	rec.set("engine.rows_scanned_per_query", float64(stats.RowsScanned)/opsPerPass)
	rec.set("engine.bytes_scanned_per_query", float64(stats.BytesScanned)/opsPerPass)
	rec.set("engine.subquery_runs_per_query", float64(stats.SubqueryRuns)/opsPerPass)
	rec.set("engine.index_lookups_per_query", float64(stats.IndexLookups)/opsPerPass)
	rec.set("engine.rows_skipped_per_query", float64(stats.RowsSkippedByIndex)/opsPerPass)
	rec.set("crypto.udf_ms_per_query", float64(stats.UDFNanos)/1e6/opsPerPass)
	perRow := 0.0
	if stats.RowsScanned > 0 {
		perRow = float64(int64(inproc)-stats.UDFNanos) / float64(stats.RowsScanned)
	}
	rec.set("engine.ns_per_row_scanned", perRow)

	for _, name := range []string{"wire.encode_ns_per_row", "wire.decode_ns_per_row", "wire.bytes_per_row", "transport.overhead_ms_per_query"} {
		rec.set(name, 0) // no frame is built on the in-process workloads
	}
	if w.served && wireRows > 0 {
		rec.set("wire.encode_ns_per_row", float64(encode)/float64(wireRows))
		rec.set("wire.decode_ns_per_row", float64(decode)/float64(wireRows))
		rec.set("wire.bytes_per_row", float64(wireBytes)/float64(wireRows))
		rec.set("transport.overhead_ms_per_query", (tracedExecMS-ms(inproc))/opsPerPass)
	}
	return nil
}

// wireBatchRows is the batch the probe frames at a time.
const wireBatchRows = 1024

// reframe pushes one result through wire.BatchWriter and back through
// wire.BatchReader, timing each direction.
func reframe(res *engine.Result) (encode, decode time.Duration, n int64, err error) {
	var buf bytes.Buffer
	start := time.Now()
	bw, err := wire.NewBatchWriter(&buf, res.Cols)
	if err != nil {
		return 0, 0, 0, err
	}
	for lo := 0; lo < len(res.Rows); lo += wireBatchRows {
		hi := lo + wireBatchRows
		if hi > len(res.Rows) {
			hi = len(res.Rows)
		}
		if err := bw.WriteBatch(res.Rows[lo:hi]); err != nil {
			return 0, 0, 0, err
		}
	}
	if err := bw.Close(); err != nil {
		return 0, 0, 0, err
	}
	encode = time.Since(start)
	n = bw.BytesWritten()

	start = time.Now()
	br, err := wire.NewBatchReader(&buf)
	if err != nil {
		return 0, 0, 0, err
	}
	got := 0
	for {
		rows, err := br.Next()
		if err != nil {
			return 0, 0, 0, err
		}
		if rows == nil {
			break
		}
		got += len(rows)
	}
	decode = time.Since(start)
	if got != len(res.Rows) {
		return 0, 0, 0, fmt.Errorf("wire probe: framed %d rows, read back %d", len(res.Rows), got)
	}
	return encode, decode, n, nil
}

// probeParsePlan times the front end once per distinct shape: the parser,
// then planner.Prepare + BestPlan (what a plan-cache miss costs).
func (st *stack) probeParsePlan(ops []traceOp, shapes []shape, rec *record) error {
	const reps = 5
	var parse, plan time.Duration
	seen := make([]bool, len(shapes))
	n := 0
	for _, op := range ops {
		if seen[op.shape] {
			continue
		}
		seen[op.shape] = true
		n++
		for r := 0; r < reps; r++ {
			start := time.Now()
			q, err := sqlparser.Parse(op.sql)
			parse += time.Since(start)
			if err != nil {
				return err
			}
			start = time.Now()
			prepared, err := planner.Prepare(q, op.params)
			if err != nil {
				return err
			}
			if _, err := st.design.Context.BestPlan(prepared); err != nil {
				return fmt.Errorf("planning %s: %w", shapes[op.shape].name, err)
			}
			plan += time.Since(start)
		}
	}
	rec.set("sqlparser.parse_us", float64(parse)/1e3/float64(n*reps))
	rec.set("planner.plan_ms", ms(plan)/float64(n*reps))
	return nil
}

// probeValues finds, for a scheme, an item of the design on the largest
// table that has one, and up to n of its real plaintext values (decrypted
// from the encrypted table). A design without the scheme gets a synthetic
// integer item, so the probe still measures the scheme's code.
func (st *stack) probeValues(scheme enc.Scheme, n int) (*enc.Item, []value.Value, error) {
	names := st.encDB.Cat.Names()
	tables := make([]*storage.Table, 0, len(names))
	for _, name := range names {
		if t, err := st.encDB.Cat.Table(name); err == nil {
			tables = append(tables, t)
		}
	}
	sort.SliceStable(tables, func(i, j int) bool { return tables[i].NumRows() > tables[j].NumRows() })
	for _, t := range tables {
		meta := st.encDB.Meta[t.Schema.Name]
		if meta == nil {
			continue
		}
		for i := range meta.Items {
			it := &meta.Items[i]
			if it.Scheme != scheme {
				continue
			}
			hi := n
			if hi > t.NumRows() {
				hi = t.NumRows()
			}
			rows, _, err := t.ScanRows(0, hi)
			if err != nil {
				return nil, nil, err
			}
			var vals []value.Value
			for _, row := range rows {
				pv, err := st.keys.DecryptValue(it, row[meta.ColumnOf(i)])
				if err != nil {
					return nil, nil, err
				}
				if !pv.IsNull() {
					vals = append(vals, pv)
				}
			}
			if len(vals) > 0 {
				return it, vals, nil
			}
		}
	}
	it := enc.ColumnItem("bench_probe", "v", scheme, value.Int)
	vals := make([]value.Value, n)
	for i := range vals {
		vals[i] = value.NewInt(int64(7919 * i))
	}
	return &it, vals, nil
}

// probeCrypto times each scheme's encrypt and decrypt per value.
func (st *stack) probeCrypto(cfg config, rec *record) error {
	perValue := func(scheme enc.Scheme) (encNS, decNS float64, err error) {
		it, vals, err := st.probeValues(scheme, cfg.scale.probeN)
		if err != nil {
			return 0, 0, err
		}
		cts := make([]value.Value, len(vals))
		start := time.Now()
		for i, v := range vals {
			if cts[i], err = st.keys.EncryptValue(it, v); err != nil {
				return 0, 0, err
			}
		}
		encD := time.Since(start)
		start = time.Now()
		for _, c := range cts {
			if _, err := st.keys.DecryptValue(it, c); err != nil {
				return 0, 0, err
			}
		}
		decD := time.Since(start)
		return float64(encD) / float64(len(vals)), float64(decD) / float64(len(vals)), nil
	}
	detE, detD, err := perValue(enc.DET)
	if err != nil {
		return err
	}
	opeE, opeD, err := perValue(enc.OPE)
	if err != nil {
		return err
	}
	_, rndD, err := perValue(enc.RND)
	if err != nil {
		return err
	}
	rec.set("crypto.det_encrypt_ns", detE)
	rec.set("crypto.det_decrypt_ns", detD)
	rec.set("crypto.ope_encrypt_us", opeE/1e3)
	rec.set("crypto.ope_decrypt_us", opeD/1e3)
	rec.set("crypto.rnd_decrypt_ns", rndD)

	// Paillier: the only measurement of HOM code while the designer
	// selects no HOM item (designer.hom_items).
	key := st.keys.Paillier()
	n := cfg.scale.paillierN
	cts := make([]*big.Int, n)
	start := time.Now()
	for i := range cts {
		c, err := key.Encrypt(big.NewInt(int64(7919 * (i + 1))))
		if err != nil {
			return err
		}
		cts[i] = c
	}
	rec.set("crypto.paillier_encrypt_us", float64(time.Since(start))/1e3/float64(n))
	start = time.Now()
	for _, c := range cts {
		if _, err := key.Decrypt(c); err != nil {
			return err
		}
	}
	rec.set("crypto.paillier_decrypt_us", float64(time.Since(start))/1e3/float64(n))
	pub := key.Public()
	sum := cts[0]
	start = time.Now()
	for _, c := range cts[1:] {
		sum = pub.AddCipher(sum, c)
	}
	rec.set("crypto.paillier_add_ns", float64(time.Since(start))/float64(n-1))
	want := int64(7919 * n * (n + 1) / 2)
	if got, err := key.Decrypt(sum); err != nil || got.Int64() != want {
		return fmt.Errorf("paillier probe: homomorphic sum decrypts to %v, want %d (err %v)", got, want, err)
	}
	return nil
}

// probeStorage times the two ways the engine reads the largest encrypted
// table: a full sequential scan, and a fetch of seeded row ids (what an
// index probe turns into).
func (st *stack) probeStorage(cfg config, rec *record) error {
	var largest *storage.Table
	for _, name := range st.encDB.Cat.Names() {
		if t, err := st.encDB.Cat.Table(name); err == nil && (largest == nil || t.NumRows() > largest.NumRows()) {
			largest = t
		}
	}
	if largest == nil || largest.NumRows() == 0 {
		return fmt.Errorf("storage probe: no encrypted table")
	}
	start := time.Now()
	rows, _, err := largest.ScanRows(0, largest.NumRows())
	if err != nil {
		return err
	}
	rec.set("storage.scan_ns_per_row", float64(time.Since(start))/float64(len(rows)))

	rng := rand.New(rand.NewSource(cfg.seed))
	picked := map[int32]bool{}
	for len(picked) < cfg.scale.probeN && len(picked) < largest.NumRows() {
		picked[int32(rng.Intn(largest.NumRows()))] = true
	}
	ids := make([]int32, 0, len(picked))
	for id := range picked {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	start = time.Now()
	if _, _, err := largest.FetchRows(ids); err != nil {
		return err
	}
	rec.set("storage.fetch_us_per_row", float64(time.Since(start))/1e3/float64(len(ids)))
	return nil
}

// probeTransport measures the fixed cost of a round trip: the same tiny
// RemoteSQL over the connection and straight into the server.
func (st *stack) probeTransport(w workload, rec *record) error {
	rec.set("transport.rtt_us", 0)
	rec.set("transport.rejects", 0)
	if !w.served {
		return nil
	}
	q, err := sqlparser.Parse(`SELECT COUNT(*) FROM region`)
	if err != nil {
		return err
	}
	const reps = 50
	var remote, inproc []float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		if _, err := st.conn.Execute(q, nil); err != nil {
			return err
		}
		remote = append(remote, float64(time.Since(start))/1e3)
		start = time.Now()
		if _, err := st.srv.Execute(q, nil); err != nil {
			return err
		}
		inproc = append(inproc, float64(time.Since(start))/1e3)
	}
	rec.set("transport.rtt_us", median(remote)-median(inproc))
	ts := st.tsrv.Stats()
	rec.set("transport.rejects", float64(ts.RejectedConns+ts.RejectedQs))
	return nil
}
