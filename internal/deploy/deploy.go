// Package deploy is the set-up phase of the paper's Figure 1, written once:
// cost model → designer → encrypt → host on the untrusted server → trusted
// client. monomi.Encrypt, the §8 experiment harness and cmd/monomi-designer
// differ only in the Spec they pass, as the paper's §8 configurations differ
// only in designer options and the runtime planner. Trusted side: the package
// holds the key store and the plaintext catalog.
package deploy

import (
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
	db, err := enc.EncryptDatabaseWith(cat, dres.Design, ks, spec.Backend)
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
