// Package deploy is the set-up phase of the paper's Figure 1, written once:
// cost model → designer → encrypt → host on the untrusted server → trusted
// client. monomi.Encrypt, the §8 experiment harness and cmd/monomi-designer
// differ only in the Spec they pass, as the paper's §8 configurations differ
// only in designer options and the runtime planner. Trusted side: the package
// holds the key store and the plaintext catalog.
package deploy

import (
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
	MasterKey    []byte // derives every column key
	PaillierBits int    // HOM modulus width (0 = the paper's 1,024)
	// NetBitsPerSec / DiskBytesPerSec, when positive, override netsim.Default.
	NetBitsPerSec   float64
	DiskBytesPerSec float64
	Designer        designer.Options
	Backend         storage.BackendConfig // encrypted row store (zero = in memory)
	GreedyExecution bool                  // no runtime planner (§8.3 Execution-Greedy)
	Prefilter       bool                  // §5.4 conservative pre-filtering
	// Indexes builds secondary indexes over the encrypted tables, mirrors
	// them onto the plaintext baseline and lets the planner cost them.
	Indexes bool
	// Parallelism (0 = GOMAXPROCS; also drives the bulk load) and BatchSize
	// (0 = unbounded) are the knobs the three Set methods below apply.
	Parallelism int
	BatchSize   int
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
	net := netsim.Default()
	if spec.NetBitsPerSec > 0 {
		net.NetBitsPerSec = spec.NetBitsPerSec
	}
	if spec.DiskBytesPerSec > 0 {
		net.DiskBytesPerSec = spec.DiskBytesPerSec
	}
	cost := planner.DefaultCostModel(net)
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
	db, err := enc.EncryptDatabaseOn(cat, dres.Design, ks, spec.Parallelism, spec.Backend)
	if err != nil {
		return nil, err
	}
	if spec.Indexes {
		if err := buildPlainIndexes(cat, dres.Design); err != nil {
			return nil, err
		}
	}
	cl := client.New(ks, server.New(db, net), dres.Context, net)
	cl.Greedy = spec.GreedyExecution
	d := &Deployment{
		Plain: cat, Engine: engine.New(cat), Keys: ks, Design: dres,
		DB: db, Client: cl, Net: net,
	}
	d.SetParallelism(spec.Parallelism)
	d.SetBatchSize(spec.BatchSize)
	d.SetIndexes(spec.Indexes)
	return d, nil
}

// buildPlainIndexes mirrors the encrypted tables' secondary indexes onto
// the plaintext baseline: every base column the design encrypts with DET
// gets a hash index, every OPE column an ordered index — so plaintext-vs-
// encrypted comparisons measure encryption overhead, not index presence.
func buildPlainIndexes(cat *storage.Catalog, design *enc.Design) error {
	for _, it := range design.Items {
		cr, ok := it.Expr.(*ast.ColumnRef)
		if !ok {
			continue // precomputed expressions have no plaintext column
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
		default:
			continue
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Remote returns a view of d whose client executes its RemoteSQL over conn;
// the rest is shared and the execution knobs carry over. The setters below
// move only the client side of such a view: the remote server's are its own.
func (d *Deployment) Remote(conn *transport.Conn) *Deployment {
	cl := client.NewRemote(d.Keys, conn, d.DB.Meta, d.Client.Ctx, d.Net)
	cl.Greedy = d.Client.Greedy
	cl.Parallelism = d.Client.Parallelism
	cl.BatchSize = d.Client.BatchSize
	r := *d
	r.Client = cl
	return &r
}

// SetParallelism sets the sharded-execution worker count on the server, the
// client's local operators and the plaintext baseline engine. Like the other
// two setters it is not safe while queries are in flight.
func (d *Deployment) SetParallelism(p int) {
	if d.Client.Srv != nil {
		d.Client.Srv.SetParallelism(p)
	}
	d.Client.Parallelism = p
	d.Engine.Parallelism = p
}

// SetBatchSize sets the execution batch size (0 = unbounded) on the same
// three engines.
func (d *Deployment) SetBatchSize(b int) {
	if d.Client.Srv != nil {
		d.Client.Srv.SetBatchSize(b)
	}
	d.Client.BatchSize = b
	d.Engine.BatchSize = b
}

// SetIndexes toggles secondary-index access paths on the server's engine,
// the planner's cost model and the plaintext baseline engine, and drops
// cached plans so later executions are costed under the new setting.
func (d *Deployment) SetIndexes(on bool) {
	if d.Client.Srv != nil {
		d.Client.Srv.SetIndexes(on)
	}
	d.Client.Ctx.Indexes = on
	d.Client.ResetPlanCache()
	d.Engine.UseIndexes = on
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
	serverTime := d.Net.ScanTime(res.Stats.BytesScanned) + d.Net.RowTime(res.Stats.RowsScanned)
	transfer := d.Net.TransferTime(res.Bytes())
	return &PlainResult{
		Cols: res.Cols, Rows: res.Rows,
		ServerTime: serverTime, Transfer: transfer,
		Total: serverTime + transfer, CPUTime: cpu,
	}, nil
}
