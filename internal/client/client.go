// Package client implements MONOMI's trusted client library (the "MONOMI
// library / client ODBC driver" of Figure 1): the only component holding
// decryption keys. It plans each query with the runtime planner, sends
// RemoteSQL to the untrusted server, decrypts the intermediate results
// (memo.go), executes the residual local operators with the embedded engine,
// and returns plaintext rows as if the application had queried an ordinary
// SQL database.
package client

import (
	"fmt"
	"io"
	"time"

	"repro/internal/ast"
	"repro/internal/enc"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/packing"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
)

// Executor is where RemoteSQL runs: the in-process *server.Server, or a
// transport connection dialed to a remote monomi-server (which speaks the
// same two calls over the socket, each as one query frame carrying the
// RemoteSQL and its parameters). The client plans, ships RemoteSQL to the
// executor it holds, and decrypts what comes back; which call it makes is
// fixed by how it was built — a client over an in-process server (New) takes
// the rows Execute hands over, a client built by NewRemote consumes the
// framed batches ExecuteStream writes to w as they arrive (see runRemote).
type Executor interface {
	Execute(q *ast.Query, params map[string]value.Value) (*server.Response, error)
	ExecuteStream(q *ast.Query, params map[string]value.Value, w io.Writer) (*server.StreamStats, error)
}

// StmtExecutor is retired: no product type implements it and no client
// consults it — every RemoteSQL travels as a query frame. It stays declared
// only because the frozen bench/layers.go names it (ROADMAP item 11(a)).
type StmtExecutor interface {
	PrepareStmt(q *ast.Query) (uint64, error)
	ExecuteStmt(id uint64, params map[string]value.Value) (*server.Response, error)
	ExecuteStmtStream(id uint64, params map[string]value.Value, w io.Writer) (*server.StreamStats, error)
	CloseStmt(id uint64) error
}

// Client is a connection to one encrypted database.
type Client struct {
	Keys *enc.KeyStore
	// Srv is the in-process server when the deployment is in-process
	// (nil in remote mode — use the Executor and Meta instead).
	Srv *server.Server
	Ctx *planner.Context
	Cfg netsim.Config
	// Greedy disables the cost-based planner: every query uses the greedy
	// plan that pushes all available computation to the server (the
	// Execution-Greedy configuration of §8.3).
	Greedy bool

	exec      Executor
	meta      map[string]*enc.TableMeta
	packCache *packing.PlainCache
	plans     *planCache
}

// New creates a client over an in-process server. ctx must be built over
// the plaintext schema with the same design the server's database was
// encrypted under. Its RemoteSQL results are handed over as rows (Execute),
// also through an executor interposed with SetExecutor.
func New(keys *enc.KeyStore, srv *server.Server, ctx *planner.Context, cfg netsim.Config) *Client {
	c := &Client{
		Keys: keys, Srv: srv, Ctx: ctx, Cfg: cfg,
		exec:      srv,
		meta:      srv.DB.Meta,
		packCache: packing.NewPlainCache(),
		plans:     newPlanCache(defaultPlanCacheCap),
	}
	return c
}

// NewRemote creates a client whose RemoteSQL runs on a remote server
// through exec (a dialed transport connection). meta is the encrypted
// design's per-table metadata — a trusted-side artifact of the Encrypt
// run, which the remote deployment re-derives from the same master key,
// schema, and workload; the client needs it to resolve Paillier
// ciphertext-group names and pack layouts. Everything else — planning,
// decryption, residual execution — is identical to the in-process client,
// except that results arrive as framed batches (ExecuteStream, the only
// call it makes) and are decoded as they arrive.
func NewRemote(keys *enc.KeyStore, exec Executor, meta map[string]*enc.TableMeta, ctx *planner.Context, cfg netsim.Config) *Client {
	c := &Client{
		Keys: keys, Ctx: ctx, Cfg: cfg,
		exec:      exec,
		meta:      meta,
		packCache: packing.NewPlainCache(),
		plans:     newPlanCache(defaultPlanCacheCap),
	}
	return c
}

// SetExecutor redirects RemoteSQL execution (tests use it to interpose
// frame recorders; ConnectRemote-style deployments use NewRemote instead).
func (c *Client) SetExecutor(e Executor) { c.exec = e }

// Executor returns the client's current RemoteSQL executor.
func (c *Client) Executor() Executor { return c.exec }

// Result is a fully executed query result with what its execution counted
// and measured.
type Result struct {
	Cols []string
	Rows [][]value.Value

	Plan *planner.Plan
	// PlanCacheHit reports that this execution reused a cached plan
	// template (rebind + run, no planning).
	PlanCacheHit bool
	// ServerTime and TransferTime are the paper's §8.1 testbed model (Cfg)
	// applied to the server's counts and the wire bytes: modelled, not
	// measured. They and Total stay only because the frozen bench/layers.go
	// reads them; ROADMAP item 1(b) recomputes its rows from counts and
	// deletes all three.
	ServerTime   time.Duration
	TransferTime time.Duration
	ClientTime   time.Duration // measured decrypt + local execution
	WireBytes    int64
	// KeyBytes counts the key-filter ciphertexts sent with RemoteSQL (the
	// other direction of the wire; WireBytes counts results only).
	KeyBytes int64
	Decrypts int64 // individual decryption operations performed
	// PlanText is Plan.Describe(), rendered when the plan was compiled: once
	// per cached template.
	PlanText string
}

// Total is the end-to-end modelled latency (see ServerTime).
func (r *Result) Total() time.Duration { return r.ServerTime + r.TransferTime + r.ClientTime }

// charge adds one remote execution's counts to r: the server's work, priced
// by the testbed model, and wireBytes.
func (c *Client) charge(r *Result, st engine.Stats, wireBytes int64) {
	r.ServerTime += c.Cfg.ServerTime(st.BytesScanned+st.ExtraBytes, st.RowsScanned, time.Duration(st.UDFNanos))
	r.TransferTime += c.Cfg.TransferTime(wireBytes)
	r.WireBytes += wireBytes
}

// Query plans and executes a SQL query with parameters through the plan
// cache (fastpath.go): a repeated text with parameters of the same kinds
// runs its cached template, parsing nothing.
func (c *Client) Query(sql string, params map[string]value.Value) (*Result, error) {
	return c.execute(sql, nil, params)
}

// runUncached plans and runs a query from scratch, bypassing the plan cache.
func (c *Client) runUncached(q *ast.Query, params map[string]value.Value) (*Result, error) {
	res := &Result{}
	plan, _, _, err := c.plan(q, params, res)
	if err != nil {
		return nil, err
	}
	return c.runPlanned(plan, res)
}

// plan prepares q with params bound, returning the bound slots, and plans
// it. Multi-round execution first computes its uncorrelated scalar
// subqueries into res and substitutes their values, so comparisons against
// them can use encrypted server-side filters (§8.2: plans may ship
// intermediate results between client and server several times); subbed
// reports a substitution.
func (c *Client) plan(q *ast.Query, params map[string]value.Value, res *Result) (plan *planner.Plan, slots []planner.BoundSlot, subbed bool, err error) {
	prepared, slots, err := c.Ctx.Prepare(q, params)
	if err != nil {
		return nil, nil, false, err
	}
	if subbed, err = c.preExecuteScalarSubqueries(prepared, res); err != nil {
		return nil, nil, false, err
	}
	plan, err = c.makePlan(prepared)
	return plan, slots, subbed, err
}

// makePlan generates the plan for a prepared query under the client's
// planner mode.
func (c *Client) makePlan(prepared *ast.Query) (*planner.Plan, error) {
	if c.Greedy {
		plan, err := c.Ctx.Generate(prepared)
		if err != nil {
			return nil, err
		}
		c.Ctx.CostPlan(plan)
		return plan, nil
	}
	plan, err := c.Ctx.BestPlan(prepared)
	if err != nil {
		return nil, err
	}
	c.Ctx.AttachKeyFilters(plan)
	return plan, nil
}

// runPlanned compiles and runs an uncached plan (literals inline).
func (c *Client) runPlanned(plan *planner.Plan, res *Result) (*Result, error) {
	cp, err := c.compile(plan)
	if err != nil {
		return nil, err
	}
	return c.run(cp, res, execCtx{})
}

// compiled is a plan made ready to run. A cached template's is built once,
// when its plan-cache entry fills, and shared by every execution: each
// decodes on clones taken from the decoders' pools and reads the rest.
type compiled struct {
	plan   *planner.Plan
	tmpl   *planner.Template // nil for a plan run once
	text   string            // plan.Describe()
	parts  map[*planner.RemotePart]compiledPart
	direct bool // directResult(plan)
}

type compiledPart struct {
	dec *decoder   // executions decode on its pooled clones
	q   *ast.Query // the part's query, HOM groups resolved
}

func (c *Client) compile(plan *planner.Plan) (*compiled, error) {
	cp := &compiled{plan: plan, text: plan.Describe(), parts: make(map[*planner.RemotePart]compiledPart), direct: directResult(plan)}
	for _, part := range plan.AllParts() {
		dec, err := c.newDecoder(part)
		if err != nil {
			return nil, fmt.Errorf("client: remote %s: %w", part.Name, err)
		}
		cp.parts[part] = compiledPart{dec: dec, q: c.resolveHomGroups(part.Query)}
	}
	return cp, nil
}

// directResult reports whether plan's decoded remote rows are its result: its
// local query is absent or re-selects its part's outputs in order — bare,
// part-qualified or self-aliased — with no other clause. Such a plan builds
// no temp table for the part and runs no local engine.
func directResult(plan *planner.Plan) bool {
	r, l := plan.Remote, plan.Local
	if r == nil || l == nil {
		return r != nil
	}
	if l.Distinct || l.Where != nil || l.GroupBy != nil || l.Having != nil || l.OrderBy != nil || l.Limit >= 0 ||
		len(l.From) != 1 || l.From[0].Sub != nil || l.From[0].Name != r.Name || len(l.Projections) != len(r.Outputs) {
		return false
	}
	for i, p := range l.Projections {
		name := r.Outputs[i].Name
		ref, ok := p.Expr.(*ast.ColumnRef)
		if !ok || ref.Column != name || (ref.Table != "" && ref.Table != l.From[0].RefName()) || (p.Alias != "" && p.Alias != name) {
			return false
		}
		for _, o := range r.Outputs[:i] {
			if o.Name == name {
				return false // the engine would resolve both to the first
			}
		}
	}
	return true
}

// run is the one plan runner: it executes cp's subplans and remote parts
// into a fresh temp-table catalog, then the final local query (unless the
// plan is direct), into res, with the execution's parameter bindings ec.
func (c *Client) run(cp *compiled, res *Result, ec execCtx) (*Result, error) {
	res.Plan, res.PlanText = cp.plan, cp.text
	cat := storage.NewCatalog()
	if err := c.runPlan(cp, cp.plan, cat, res, ec); err != nil {
		return nil, err
	}
	if cp.direct {
		return res, nil
	}
	return c.finishPlan(cp.plan, cat, res, ec)
}

// PlanCacheStats snapshots the plan cache's hit/miss/eviction counters.
func (c *Client) PlanCacheStats() PlanCacheStats { return c.plans.stats() }

// Close drops the client's cached plans; it holds no server-side resource.
// The client remains usable (the cache refills on demand). System.Close and
// bench call it when they tear a deployment down.
func (c *Client) Close() error {
	c.plans.purge()
	return nil
}

// ResetPlanCache drops every cached plan, so the next execution of each
// statement parses and plans again. Benchmarks use it to measure cold
// planning cost; counters are not reset.
func (c *Client) ResetPlanCache() { c.plans.purge() }

// finishPlan executes the plan's final local query with the execution's
// local parameter bindings.
func (c *Client) finishPlan(plan *planner.Plan, cat *storage.Catalog, res *Result, ec execCtx) (*Result, error) {
	start := time.Now()
	out, err := engine.New(cat).Execute(plan.Local, ec.localp)
	if err != nil {
		return nil, fmt.Errorf("client: local query: %w", err)
	}
	res.ClientTime += time.Since(start)
	res.Cols = out.Cols
	res.Rows = out.Rows
	return res, nil
}

// runPlan materializes the plan's temp tables: its subplans in order, then
// its remote part — except that a step whose remote part carries a key
// filter waits until the filter's source table exists (Q17 runs r0 before
// the sub-fetch r1 that r0's keys restrict).
func (c *Client) runPlan(cp *compiled, plan *planner.Plan, cat *storage.Catalog, res *Result, ec execCtx) error {
	n := len(plan.Subplans) + 1
	var doneBuf [16]bool // a plan of up to 15 subplans allocates nothing here
	done := doneBuf[:]
	if n > len(doneBuf) {
		done = make([]bool, n)
	}
	done = done[:n]
	for left := n; left > 0; {
		ran := false
		for i := range done {
			if done[i] || !sourceReady(stepPart(plan, i), cat) {
				continue
			}
			if err := c.runStep(cp, plan, i, cat, res, ec); err != nil {
				return err
			}
			done[i], ran = true, true
			left--
		}
		if !ran {
			return fmt.Errorf("client: key filters of the plan wait on each other")
		}
	}
	return nil
}

// stepPart is the remote part step i of runPlan executes itself: a subplan's
// part when the subplan has no local query, the plan's own part last.
func stepPart(plan *planner.Plan, i int) *planner.RemotePart {
	if i == len(plan.Subplans) {
		return plan.Remote
	}
	if sp := plan.Subplans[i].Plan; sp.Local == nil {
		return sp.Remote
	}
	return nil
}

// runStep runs step i of runPlan: subplan i, or the plan's remote part.
func (c *Client) runStep(cp *compiled, plan *planner.Plan, i int, cat *storage.Catalog, res *Result, ec execCtx) error {
	if i == len(plan.Subplans) {
		if plan.Remote == nil {
			return nil
		}
		return c.runRemote(cp, plan.Remote, cat, res, ec)
	}
	sp := plan.Subplans[i]
	if err := c.runPlan(cp, sp.Plan, cat, res, ec); err != nil {
		return err
	}
	// A subplan with a local query materializes under its own name.
	if sp.Plan.Local != nil {
		sub := &Result{}
		r, err := c.finishPlan(sp.Plan, cat, sub, ec)
		if err != nil {
			return err
		}
		res.ClientTime += sub.ClientTime
		tbl, err := storage.NewTableFromRows(resultSchema(sp.Name, r.Cols, r.Rows), r.Rows)
		if err != nil {
			return err
		}
		cat.Put(tbl)
	} else if sp.Plan.Remote != nil && sp.Plan.Remote.Name != sp.Name {
		// Rename the remote temp to the subplan's name.
		t, err := cat.Table(sp.Plan.Remote.Name)
		if err != nil {
			return err
		}
		t.Schema.Name = sp.Name
		cat.Drop(sp.Plan.Remote.Name)
		cat.Put(t)
	}
	return nil
}

// runRemote sends one RemoteSQL to the server and decrypts its output into
// a temp table, or into res when it is a direct plan's result. The deployment
// picks the producer: a client over an in-process server takes the engine's
// rows as one batch; a client built by NewRemote reads the framed batch
// stream while the server is still producing. One loop decodes either on a
// clone of the part's decoder (stream.go). Both send the same query: the
// part's, restricted by its key filter's keys when it has one (keyfilter.go)
// — with no keys, nothing is sent.
func (c *Client) runRemote(cp *compiled, part *planner.RemotePart, cat *storage.Catalog, res *Result, ec execCtx) error {
	fail := func(err error) error { return fmt.Errorf("client: remote %s: %w", part.Name, err) }
	p := cp.parts[part]
	q, params, err := c.applyKeyFilter(part, p.q, ec.encp, cat, res)
	if err != nil {
		return fail(err)
	}
	var rows [][]value.Value
	if q != nil {
		if rows, err = c.fetch(q, params, p.dec, res); err != nil {
			return fail(err)
		}
	}
	if cp.direct && part == cp.plan.Remote {
		res.Cols = make([]string, len(part.Outputs))
		for i, o := range part.Outputs {
			res.Cols[i] = o.Name
		}
		res.Rows = rows
		return nil
	}
	start := time.Now()
	tbl, err := storage.NewTableFromRows(remoteSchema(part), rows)
	if err != nil {
		return fail(err)
	}
	res.ClientTime += time.Since(start)
	cat.Put(tbl)
	return nil
}

// remoteSchema builds the temp-table schema for one remote part.
func remoteSchema(part *planner.RemotePart) storage.Schema {
	schema := storage.Schema{Name: part.Name}
	for _, o := range part.Outputs {
		schema.Cols = append(schema.Cols, storage.Column{Name: o.Name, Type: storage.ColTypeOf(o.Kind)})
	}
	return schema
}

// resolveHomGroups replaces @hom: placeholders in PAILLIER_SUM calls with
// the actual ciphertext-group names from the encrypted DB's metadata, in
// every block of a copy of q.
func (c *Client) resolveHomGroups(q *ast.Query) *ast.Query {
	out := q.Clone()
	ast.RewriteStatement(out, func(x ast.Expr) ast.Expr {
		f, ok := x.(*ast.FuncCall)
		if !ok || f.Name != "paillier_sum" || len(f.Args) != 2 {
			return nil
		}
		lit, ok := f.Args[0].(*ast.Literal)
		if !ok || lit.Val.K != value.Str {
			return nil
		}
		table, exprSQL, ok := planner.ParseHomPlaceholder(lit.Val.S)
		if !ok {
			return nil
		}
		meta, ok := c.meta[table]
		if !ok {
			return nil
		}
		group, _ := meta.FindGroupColumn(exprSQL)
		if group == nil {
			return nil
		}
		return &ast.FuncCall{Name: "paillier_sum", Args: []ast.Expr{
			&ast.Literal{Val: value.NewStr(group.Name)}, f.Args[1],
		}}
	})
	return out
}

// preExecuteScalarSubqueries finds comparisons against uncorrelated scalar
// subqueries in WHERE/HAVING and replaces each subquery with its computed
// value (executed through the full split machinery, outside the plan
// cache). It reports whether it substituted anything — a substituted value
// is data-dependent, so the resulting plan must not be cached for the
// statement.
func (c *Client) preExecuteScalarSubqueries(q *ast.Query, res *Result) (bool, error) {
	changed := false
	replace := func(e ast.Expr) (ast.Expr, error) {
		var firstErr error
		out := ast.RewriteExpr(e, func(x ast.Expr) ast.Expr {
			if firstErr != nil {
				return nil
			}
			b, ok := x.(*ast.BinaryExpr)
			if !ok || !b.Op.IsComparison() {
				return nil
			}
			rewriteSide := func(side ast.Expr) ast.Expr {
				sq, ok := side.(*ast.SubqueryExpr)
				if !ok || !planner.IsUncorrelated(c.Ctx, sq.Sub) {
					return side
				}
				sub, err := c.runUncached(sq.Sub, nil)
				if err != nil {
					firstErr = err
					return side
				}
				res.ServerTime += sub.ServerTime
				res.TransferTime += sub.TransferTime
				res.ClientTime += sub.ClientTime
				res.WireBytes += sub.WireBytes
				res.KeyBytes += sub.KeyBytes
				res.Decrypts += sub.Decrypts
				if len(sub.Rows) == 0 {
					return &ast.Literal{Val: value.NewNull()}
				}
				return &ast.Literal{Val: sub.Rows[0][0]}
			}
			l := rewriteSide(b.Left)
			r := rewriteSide(b.Right)
			if l != b.Left || r != b.Right {
				changed = true
				return &ast.BinaryExpr{Op: b.Op, Left: l, Right: r}
			}
			return nil
		})
		return out, firstErr
	}
	for _, clause := range []*ast.Expr{&q.Where, &q.Having} {
		var err error
		if *clause, err = replace(*clause); err != nil {
			return changed, err
		}
	}
	return changed, nil
}

// resultSchema derives a temp-table schema from a local result.
func resultSchema(name string, cols []string, rows [][]value.Value) storage.Schema {
	s := storage.Schema{Name: name}
	for i, cname := range cols {
		k := value.Null
		for _, row := range rows {
			if !row[i].IsNull() {
				k = row[i].K
				break
			}
		}
		s.Cols = append(s.Cols, storage.Column{Name: cname, Type: storage.ColTypeOf(k)})
	}
	return s
}
