// Package deploy is the set-up phase of the paper's Figure 1, written once:
// cost model → designer → encrypt → host on the untrusted server → trusted
// client. monomi.Encrypt, the §8 experiment harness and cmd/monomi-designer
// differ only in the Spec they pass, as the paper's §8 configurations differ
// only in designer options and the runtime planner. Trusted side: the package
// holds the key store and the plaintext catalog.
package deploy

import (
	"fmt"
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
	"repro/internal/transport"
	"repro/internal/value"
)

// Spec carries the values the callers vary; everything else about a
// deployment follows from the catalog, the workload and these.
type Spec struct {
	MasterKey       []byte // derives every column key
	PaillierBits    int    // HOM modulus width (0 = the paper's 1,024)
	Designer        designer.Options
	Backend         storage.BackendConfig // encrypted row store (zero = in memory)
	GreedyExecution bool                  // no runtime planner (§8.3 Execution-Greedy)
	Prefilter       bool                  // §5.4 conservative pre-filtering
	// Indexes is the one index switch. With it Build declares the design's
	// secondary indexes (enc.DeclareIndexes) on the encrypted catalog and
	// mirrors them onto the plaintext baseline, and Design lets the planner
	// cost them (planner.Context.Indexes); without it neither side declares
	// any. Both engines read whatever indexes a table declares, so nothing
	// else needs setting, and it is fixed for the deployment's lifetime.
	Indexes bool
}

// Design is the set-up phase up to the physical design: derive the keys,
// bind the §6.4 cost model to them and run the designer over the labeled
// workload. The result's Context — keys and cost model included — is the one
// a Build of the same spec plans with, and it is a function of (catalog,
// workload, spec) alone, which is what lets monomi-server and ConnectRemote's
// trusted side re-derive one design independently.
func Design(cat *storage.Catalog, workload map[string]string, spec Spec) (*designer.Result, error) {
	if spec.PaillierBits == 0 {
		spec.PaillierBits = 1024
	}
	ks, err := enc.NewKeyStore(spec.MasterKey, spec.PaillierBits)
	if err != nil {
		return nil, err
	}
	cost := planner.DefaultCostModel(netsim.Default())
	cost.HomCipherBytes = ks.Paillier().CiphertextSize()
	w, err := designer.ParseWorkload(workload)
	if err != nil {
		return nil, err
	}
	dres, err := designer.Run(cat, w, ks, cost, spec.Designer)
	if err != nil {
		return nil, err
	}
	dres.Context.EnablePrefilter = spec.Prefilter
	dres.Context.Indexes = spec.Indexes
	return dres, nil
}

// Layout derives how the disk backend stores each encrypted table
// (enc.Layout) from the workload's plans, the way the design derives its
// indexes: from the design alone. Each query is prepared and planned as the
// client plans it (planner.Context.ClientPlan) under ctx — the final design
// and the deployment's planner settings — and the RemoteSQL statements of
// its parts, subplans' parts and key-filter targets included, give each
// table:
//
//   - its hot columns: every column name a statement names is hot in every
//     base table that statement reads, and a part that selects * makes its
//     tables wholly hot. Names are matched, not resolved to their tables, so
//     a name two tables share is hot in both: the set errs only toward the
//     hot segment;
//   - its zoned columns: every OPE column a WHERE range conjunct
//     (ast.Sargable) of a block reading the table ranges over;
//   - its cluster column: the zoned column the most scans of the table — a
//     base-table entry of a block's FROM — range over. A tie goes to the
//     lower schema position; a table no scan ranges over keeps load order.
//
// The trusted side needs none of it; the server's load does
// (EncryptDatabaseWith). A statement whose uncorrelated scalar subqueries
// the client runs first and substitutes (multi-round execution) is planned
// here as written; a substituted plan that named a column outside the hot
// set would read it from the cold segment, correctly and at more cost. On
// TPC-H the two read the same columns (TestWorkloadReadsNoColdPage pins it).
func Layout(ctx *planner.Context, workload map[string]string, greedy bool) (enc.Layout, error) {
	w, err := designer.ParseWorkload(workload)
	if err != nil {
		return nil, err
	}
	ope := map[string]map[string]bool{} // table → its OPE columns
	for _, it := range ctx.Design.Items {
		if it.Scheme == enc.OPE {
			if ope[it.Table] == nil {
				ope[it.Table] = map[string]bool{}
			}
			ope[it.Table][it.ColumnName()] = true
		}
	}
	hot := map[string]map[string]bool{}
	ranges := map[string]map[string]int{} // table → zoned column → scans ranging over it
	for i, q := range w.Queries {
		prepared, _, err := ctx.Prepare(q, nil)
		if err != nil {
			return nil, fmt.Errorf("deploy: prepare %s: %w", w.Labels[i], err)
		}
		plan, err := ctx.ClientPlan(prepared, greedy)
		if err != nil {
			return nil, fmt.Errorf("deploy: plan %s: %w", w.Labels[i], err)
		}
		for _, part := range plan.AllParts() {
			addReads(hot, part)
			addRanges(ranges, ope, part)
		}
	}
	l := enc.Layout{}
	for t, cols := range hot {
		tl := enc.TableLayout{Hot: cols}
		scans := ranges[t]
		for _, it := range ctx.Design.TableItems(t) { // encrypted schema order
			col := it.ColumnName()
			if n, ok := scans[col]; ok {
				tl.Zoned = append(tl.Zoned, col)
				if tl.Cluster == "" || n > scans[tl.Cluster] {
					tl.Cluster = col
				}
			}
		}
		l[t] = tl
	}
	return l, nil
}

// addReads adds to hot what part's statement reads (Layout).
func addReads(hot map[string]map[string]bool, part *planner.RemotePart) {
	var tables []string
	ast.EachBlock(part.Query, func(b, _ *ast.Query) {
		for _, f := range b.From {
			if f.Sub == nil {
				tables = append(tables, f.Name)
			}
		}
	})
	mark := func(x ast.Expr) {
		c, ok := x.(*ast.ColumnRef)
		if !ok {
			return
		}
		for _, t := range tables {
			if hot[t] == nil {
				hot[t] = map[string]bool{}
			}
			hot[t][c.Column] = true
		}
	}
	ast.WalkStatement(part.Query, mark)
	if kf := part.KeyFilter; kf != nil {
		ast.Walk(kf.Target, mark)
	}
}

// addRanges counts in ranges, by table and OPE column (ope), each scan of
// part's statement that ranges over the column (Layout): a range conjunct's
// column names a scan's table when it is one of the table's OPE columns and
// its qualifier, if any, is the scan's name.
func addRanges(ranges map[string]map[string]int, ope map[string]map[string]bool, part *planner.RemotePart) {
	ast.EachBlock(part.Query, func(b, _ *ast.Query) {
		for _, f := range b.From {
			if f.Sub != nil {
				continue
			}
			seen := map[string]bool{}
			for _, c := range ast.Conjuncts(b.Where) {
				s, ok := ast.Sargable(c)
				if ok && s.Range() && ope[f.Name][s.Col.Column] && (s.Col.Table == "" || s.Col.Table == f.RefName()) && !seen[s.Col.Column] {
					seen[s.Col.Column] = true
					if ranges[f.Name] == nil {
						ranges[f.Name] = map[string]int{}
					}
					ranges[f.Name][s.Col.Column]++
				}
			}
		}
	})
}

// Deployment is an assembled system.
type Deployment struct {
	Plain  *storage.Catalog
	Engine *engine.Engine // plaintext engine (the unencrypted baseline)
	Keys   *enc.KeyStore
	Design *designer.Result
	DB     *enc.DB
	Client *client.Client
	Net    netsim.Config
}

// Build runs the whole set-up phase: Design, encrypt the catalog under the
// chosen design, host it on an in-process server and stand up the client.
func Build(cat *storage.Catalog, workload map[string]string, spec Spec) (*Deployment, error) {
	dres, err := Design(cat, workload, spec)
	if err != nil {
		return nil, err
	}
	ks, net := dres.Context.Keys, dres.Context.Cost.Cfg
	var layout enc.Layout // the in-memory backend ignores the layout
	if spec.Backend.Kind == storage.BackendDisk {
		if layout, err = Layout(dres.Context, workload, spec.GreedyExecution); err != nil {
			return nil, err
		}
	}
	db, err := enc.EncryptDatabaseWith(cat, dres.Design, ks, spec.Backend, layout)
	if err != nil {
		return nil, err
	}
	if spec.Indexes {
		if err := enc.DeclareIndexes(db.Cat, dres.Design, true); err != nil {
			return nil, err
		}
		if err := enc.DeclareIndexes(cat, dres.Design, false); err != nil {
			return nil, err
		}
	}
	srv := server.New(db, net)
	cl := client.New(ks, srv, dres.Context, net)
	cl.Greedy = spec.GreedyExecution
	plain := engine.New(cat)
	return &Deployment{
		Plain: cat, Engine: plain, Keys: ks, Design: dres,
		DB: db, Client: cl, Net: net,
	}, nil
}

// Remote returns a view of d whose client executes its RemoteSQL over conn;
// the rest is shared, and the client plans as d's does (Greedy and the
// planner context carry over). The remote server's engine settings are its
// own.
func (d *Deployment) Remote(conn *transport.Conn) *Deployment {
	cl := client.NewRemote(d.Keys, conn, d.DB.Meta, d.Client.Ctx, d.Net)
	cl.Greedy = d.Client.Greedy
	r := *d
	r.Client = cl
	return &r
}

// PlainResult is a plaintext execution charged the same modelled disk and link.
type PlainResult struct {
	Cols       []string
	Rows       [][]value.Value
	ServerTime time.Duration
	Transfer   time.Duration
	Total      time.Duration
	CPUTime    time.Duration // measured executor CPU (Figure 7 denominator)
}

// ExecutePlain runs sql on the unencrypted database.
func (d *Deployment) ExecutePlain(sql string) (*PlainResult, error) {
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := d.Engine.Execute(q, nil)
	if err != nil {
		return nil, err
	}
	cpu := time.Since(start)
	serverTime := d.Net.ServerTime(res.Stats.BytesScanned, res.Stats.RowsScanned, 0)
	transfer := d.Net.TransferTime(res.Bytes())
	return &PlainResult{
		Cols: res.Cols, Rows: res.Rows,
		ServerTime: serverTime, Transfer: transfer,
		Total: serverTime + transfer, CPUTime: cpu,
	}, nil
}
