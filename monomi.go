// Package monomi is the public API of this MONOMI reproduction: a system
// for securely executing analytical SQL over an encrypted database hosted
// on an untrusted server ("Processing Analytical Queries over Encrypted
// Data", Tu, Kaashoek, Madden, Zeldovich — VLDB 2013).
//
// The flow mirrors Figure 1 of the paper:
//
//  1. Build (or load) a plaintext database and a representative workload.
//  2. Run the Designer to choose the encrypted physical design — which
//     ⟨value, scheme⟩ columns to materialize (DET, OPE, HOM/Paillier,
//     SEARCH, RND), which expressions to precompute per row, and how to
//     pack Paillier plaintexts — optionally under a space budget S.
//  3. Encrypt the database and host it on the untrusted server.
//  4. Query the returned System (its client side is the trusted library and
//     sole key holder): every query is split by the planner into RemoteSQL
//     over ciphertexts plus local decrypt/filter/group/sort operators.
//
// A quickstart:
//
//	db := monomi.NewDatabase()
//	db.MustCreateTable("orders",
//	    monomi.Col("o_id", monomi.Int), monomi.Col("o_cust", monomi.String),
//	    monomi.Col("o_total", monomi.Int), monomi.Col("o_date", monomi.Date))
//	db.MustInsert("orders", 1, "alice", 120, "1995-01-15")
//	...
//	sys, err := monomi.Encrypt(db, monomi.Workload{
//	    "top": "SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust",
//	}, monomi.DefaultOptions())
//	rows, err := sys.Query("SELECT o_cust, SUM(o_total) t FROM orders GROUP BY o_cust ORDER BY t DESC")
//
// # Parallel sharded execution
//
// Both sides of the split execute in parallel: scans, filters, hash-join
// probes, projection, and grouped aggregation are partitioned into
// contiguous row-range shards run by a worker pool, and the server batches
// each shard's Paillier ciphertext multiplications into modular products.
// Per-shard aggregation states recombine through a partial-state Merge
// (engine.AggState.Merge): shards merge in row order, so results — group
// order, row order, ciphertext concatenations, even the wire encoding of
// homomorphic sums — are identical to sequential execution, except that
// SUM/AVG over Float columns may differ from the sequential fold in the
// last ULP (per-shard partial sums regroup the float additions). The
// worker count is Options.Parallelism (default GOMAXPROCS; 1 forces the
// sequential path) and can be changed later with System.SetParallelism.
//
// # Batch-at-a-time execution
//
// Every query block — the RemoteSQL the planner ships to the untrusted
// server, the local residual queries, their subqueries and derived tables
// — executes one way, as a pull pipeline of row batches: scan → filter →
// hash-join probes → projection or grouped aggregation, then the sort,
// DISTINCT and LIMIT stages the block asks for. Grouped aggregation
// (including the crypto UDFs) folds each batch straight into its per-group
// states, multi-table queries stream the probe side of their joins against
// build sides hashed up front, LIMIT stops the scan as soon as enough rows
// are produced, ORDER BY with LIMIT keeps a bounded heap, and every worker
// of a sharded query runs its own pipeline over its own row range.
// Options.BatchSize bounds the rows one pull moves: smaller batches mean
// less memory, an earlier first batch and finer LIMIT early exit; 0 (the
// default) is unbounded — one batch per worker. Results are byte-identical
// at every ⟨BatchSize, Parallelism⟩ combination, with the same float
// SUM/AVG last-ULP caveat above — it comes from sharding, not from
// batching. The knob can be changed later with System.SetBatchSize.
//
// # Result hand-off
//
// How a RemoteSQL result crosses the trust boundary is a property of the
// deployment, not an option:
//
//   - In process (the System Encrypt returns): the server's engine hands
//     its encrypted rows to the client as they are, and one decode pass runs
//     over them on Parallelism workers. Rows.WireBytes is what the paper's
//     transfer model charges for those rows — value sizes + 4 B per row.
//   - Remote (a System from ConnectRemote): the server frames encrypted
//     batches onto the socket while its scan is still running
//     (internal/wire's header/batch/end framing) and the client decodes each
//     arriving batch on a pool of Parallelism workers, merging decrypted
//     rows in batch order. The first plaintext row exists after one batch
//     (give the server a bounded BatchSize) and no whole encrypted result
//     is buffered. Rows.WireBytes counts the framed bytes.
//
// Results — rows, row order, encodings — are identical either way. The two
// WireBytes figures are not the same count: on tpch-scan's twelve queries
// (seed 1) the in-process model reads 233 KB/query and the framed stream 286.
//
// # Remote deployment
//
// The split can run over a real network instead of in-process:
// System.Serve exposes the untrusted server half on a TCP (optionally TLS)
// address — many concurrent client sessions, per-query cancellation, and
// admission control (connection cap, in-flight query cap) — and
// System.ConnectRemote dials it, returning a System whose queries plan and
// decrypt locally but execute their RemoteSQL over the socket. The socket
// carries exactly the bytes the server's ExecuteStream writes (the
// internal/wire batch framing, chunked into transport frames), so results,
// row order, and encodings are identical to the in-process System's. The
// cmd/monomi-server binary is a standalone deployment of Serve:
//
//	monomi-server -addr :7077 -sf 0.002            # untrusted host
//	sys, _ := monomi.Encrypt(db, workload, opts)   # trusted host (same
//	remote, _ := sys.ConnectRemote("server:7077")  # key/schema/workload)
//	rows, _ := remote.Query("SELECT ...")
//	defer remote.Close()
//
// Both sides must be built from the same master key, schema, and workload:
// the encrypted design is deterministic, so the trusted side re-derives
// the keys and metadata the remote data was encrypted under.
package monomi

import (
	"crypto/tls"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/deploy"
	"repro/internal/designer"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/transport"
	"repro/internal/value"
)

// ColType enumerates column types.
type ColType int

// Column types.
const (
	Int ColType = iota
	Float
	String
	Date
)

// Column declares one table column.
type Column struct {
	Name string
	Type ColType
}

// Col is a convenience constructor.
func Col(name string, t ColType) Column { return Column{Name: name, Type: t} }

// Database is a plaintext database under construction (the trusted side's
// source of truth before encryption).
type Database struct {
	cat *storage.Catalog
}

// NewDatabase creates an empty database.
func NewDatabase() *Database { return &Database{cat: storage.NewCatalog()} }

// CreateTable adds a table.
func (d *Database) CreateTable(name string, cols ...Column) error {
	s := storage.Schema{Name: name}
	for _, c := range cols {
		s.Cols = append(s.Cols, storage.Column{Name: c.Name, Type: colType(c.Type)})
	}
	_, err := d.cat.Create(s)
	return err
}

// MustCreateTable is CreateTable that panics on error.
func (d *Database) MustCreateTable(name string, cols ...Column) {
	if err := d.CreateTable(name, cols...); err != nil {
		panic(err)
	}
}

// Insert appends a row; date columns take "YYYY-MM-DD" strings, and a nil
// value inserts SQL NULL (encrypted as NULL — nullness is not hidden).
func (d *Database) Insert(table string, vals ...any) error {
	t, err := d.cat.Table(table)
	if err != nil {
		return err
	}
	if len(vals) != len(t.Schema.Cols) {
		return fmt.Errorf("monomi: table %s expects %d values, got %d", table, len(t.Schema.Cols), len(vals))
	}
	row := make([]value.Value, len(vals))
	for i, v := range vals {
		cv, err := toValue(t.Schema.Cols[i].Type, v)
		if err != nil {
			return fmt.Errorf("monomi: column %s: %w", t.Schema.Cols[i].Name, err)
		}
		row[i] = cv
	}
	return t.Insert(row)
}

// MustInsert is Insert that panics on error.
func (d *Database) MustInsert(table string, vals ...any) {
	if err := d.Insert(table, vals...); err != nil {
		panic(err)
	}
}

// TPCH returns a generated TPC-H database at the given scale factor
// (SF 1.0 = 6M lineitem rows; experiments here use small fractions).
func TPCH(scaleFactor float64, seed int64) (*Database, error) {
	cat, err := tpch.Generate(tpch.ScaleFactor(scaleFactor), seed)
	if err != nil {
		return nil, err
	}
	return &Database{cat: cat}, nil
}

// TPCHQuery returns the adapted text of a supported TPC-H query.
func TPCHQuery(n int) (string, bool) {
	q, ok := tpch.Queries[n]
	return q, ok
}

// TPCHQueries lists the supported TPC-H query numbers.
func TPCHQueries() []int { return tpch.SupportedQueries() }

// Workload maps labels to representative SQL queries for the designer.
type Workload map[string]string

// Options configures encryption and the designer.
type Options struct {
	// MasterKey derives all column keys; required non-empty.
	MasterKey []byte
	// PaillierBits is the HOM modulus width (paper: 1024).
	PaillierBits int
	// SpaceBudget is the paper's S factor (0 = unconstrained).
	SpaceBudget float64
	// SpaceGreedy uses the §8.6 heuristic instead of the ILP.
	SpaceGreedy bool
	// Parallelism is the worker count for sharded query execution on both
	// sides of the split: the untrusted server partitions its scans,
	// filters, joins, and grouped aggregation into contiguous row-range
	// shards (per-shard aggregation states recombine with AggState.Merge,
	// and each shard batches its Paillier ciphertext multiplications), and
	// the trusted client runs its residual local operators the same way.
	// 0 (the default) uses GOMAXPROCS; 1 forces fully sequential
	// execution. Results are identical at every level, except SUM/AVG
	// over Float columns, which may differ in the last ULP (see the
	// package doc).
	Parallelism int
	// BatchSize bounds the rows one pull moves through the execution
	// pipeline on both sides of the split — the untrusted server's
	// encrypted scans and the trusted client's local residual queries
	// alike: scans read that many rows at a time, joins and grouped
	// emission cap their output batches at it, and a LIMIT stops the scan
	// at the next batch boundary. 0 (the default) is unbounded: one batch
	// per worker, the fastest setting measured on the TPC-H suite; 1024 is
	// a good bounded size when memory or time to the first row matters; 1
	// moves a row at a time (correct but slow — useful only for testing).
	// Results are byte-identical at every ⟨BatchSize, Parallelism⟩
	// combination — batching never changes rows, row order, or encodings;
	// the float SUM/AVG last-ULP caveat on Parallelism is the only
	// exception and is independent of BatchSize.
	BatchSize int
	// Indexes maintains secondary indexes over the encrypted tables — a
	// DET hash index (equality, IN, hash-join builds) and an OPE ordered
	// index (ranges, BETWEEN, prefix ORDER BY) per column carrying those
	// schemes — and lets both the engine and the cost-based planner choose
	// an index probe over a full scan when the predicate is selective
	// enough. The plaintext baseline engine gets mirror indexes on the
	// same columns so comparisons stay fair. Results are byte-identical
	// with indexes on or off; only scan cost changes. DefaultOptions
	// enables it; toggle later with System.SetIndexes.
	Indexes bool
	// Backend selects the encrypted catalog's physical row store: "" or
	// "mem" keeps rows in memory (the original layout); "disk" loads each
	// encrypted table into an append-only paged segment file under DataDir,
	// read back through an LRU block cache. Results are byte-identical
	// across backends at every ⟨Parallelism, BatchSize, deployment⟩
	// combination; what changes is the charged I/O — a disk-backed scan
	// charges its real page reads (block-cache misses) instead of the
	// resident-byte approximation.
	Backend string
	// DataDir is where the disk backend places its segment files
	// (required when Backend is "disk").
	DataDir string
	// PageBytes is the disk backend's segment page size
	// (0 = storage.DefaultPageBytes).
	PageBytes int
	// BlockCacheBytes is the disk backend's block-cache capacity, per table
	// (0 = storage.DefaultCacheBytes). The cache holds verified page images
	// — raw bytes, not decoded rows — so this is the bytes it keeps
	// resident; rows are decoded from an image on every read, only the
	// columns the query names.
	BlockCacheBytes int64
}

// backendConfig resolves the Options backend fields into a storage config.
func (o Options) backendConfig() (storage.BackendConfig, error) {
	kind, err := storage.ParseBackendKind(o.Backend)
	if err != nil {
		return storage.BackendConfig{}, err
	}
	cfg := storage.BackendConfig{
		Kind: kind, Dir: o.DataDir,
		PageBytes: o.PageBytes, CacheBytes: o.BlockCacheBytes,
	}
	if kind == storage.BackendDisk && cfg.Dir == "" {
		return storage.BackendConfig{}, fmt.Errorf("monomi: Backend \"disk\" requires DataDir")
	}
	return cfg, nil
}

// DefaultOptions returns the paper's configuration: 1,024-bit Paillier,
// S=2 space budget (the designer's cost model assumes the paper's 10 Mbit/s
// link).
func DefaultOptions() Options {
	return Options{
		MasterKey:    []byte("monomi-default-master-key"),
		PaillierBits: 1024,
		SpaceBudget:  2.0,
		Indexes:      true,
	}
}

// System is an encrypted deployment: untrusted server + trusted client.
type System struct {
	// dep is the assembled deployment (internal/deploy); a System from
	// ConnectRemote holds a Remote view of the one Encrypt built.
	dep *deploy.Deployment
	// conn is the dialed transport session when this System came from
	// ConnectRemote; nil marks the System Encrypt returned, which owns the
	// encrypted catalog.
	conn *transport.Conn
}

// Encrypt runs the designer over the workload, encrypts the database, and
// returns a ready System: internal/deploy's Build under MONOMI's designer
// options, indexes per Options.Indexes, §5.4 pre-filtering on.
func Encrypt(db *Database, workload Workload, opts Options) (*System, error) {
	if len(opts.MasterKey) == 0 {
		return nil, fmt.Errorf("monomi: MasterKey must be set")
	}
	becfg, err := opts.backendConfig()
	if err != nil {
		return nil, err
	}
	dopts := designer.MonomiOptions()
	dopts.SpaceBudget = opts.SpaceBudget
	dopts.SpaceGreedy = opts.SpaceGreedy
	dep, err := deploy.Build(db.cat, workload, deploy.Spec{
		MasterKey:    opts.MasterKey,
		PaillierBits: opts.PaillierBits,
		Designer:     dopts,
		Backend:      becfg,
		Prefilter:    true,
		Indexes:      opts.Indexes,
		Parallelism:  opts.Parallelism,
		BatchSize:    opts.BatchSize,
	})
	if err != nil {
		return nil, err
	}
	return &System{dep: dep}, nil
}

// SetParallelism changes the worker count for sharded execution on the
// server, the client's local operators, and the plaintext baseline engine
// (see Options.Parallelism). It must not be called while queries are in
// flight. On a remote System (ConnectRemote) only the client-side knob
// moves — the remote server's parallelism is fixed by its own flags.
func (s *System) SetParallelism(p int) { s.dep.SetParallelism(p) }

// SetBatchSize changes the execution batch size on the server, the
// client's local operators, and the plaintext baseline engine (see
// Options.BatchSize; 0 = unbounded). It must not be called while
// queries are in flight. On a remote System only the client-side knob
// moves — the remote server's batch size is fixed by its own flags.
func (s *System) SetBatchSize(b int) { s.dep.SetBatchSize(b) }

// SetIndexes toggles secondary-index access paths on the server's engine,
// the planner's cost model, and the plaintext baseline engine (see
// Options.Indexes). Results are byte-identical either way. Cached plans
// are dropped so subsequent executions are costed under the new setting.
// It must not be called while queries are in flight. On a remote System
// only the client-side planner moves — the remote server's engine setting
// is fixed by its own flags.
func (s *System) SetIndexes(on bool) { s.dep.SetIndexes(on) }

// ServeConfig tunes a network deployment of the untrusted server: MaxConns
// caps concurrent sessions (the C+1th connection is rejected with a typed
// frame), MaxInFlight caps globally concurrent query executions, QueryWait
// bounds how long a query waits for an in-flight slot (0 = fail fast),
// and TLS wraps accepted connections when set.
type ServeConfig = transport.Config

// Server is a running network endpoint for a System's untrusted half; see
// its Close, Addr, Stats, and SessionStats methods.
type Server = transport.Server

// Serve exposes this System's untrusted server on a TCP address (use
// ":0" for an ephemeral port; Addr reports it). The returned Server runs
// until Close. The trusted material — keys, design, planner — never
// crosses this boundary: sessions execute RemoteSQL over ciphertexts and
// stream encrypted batches back, exactly as the in-process path does.
func (s *System) Serve(addr string, cfg ServeConfig) (*Server, error) {
	if s.dep.Client.Srv == nil {
		return nil, fmt.Errorf("monomi: this System is itself a remote connection; Serve needs the deployment that holds the data")
	}
	return transport.Listen(s.dep.Client.Srv, addr, cfg)
}

// ConnectRemote dials a monomi-server and returns a System whose queries
// execute their RemoteSQL over the socket. Planning, decryption, and
// residual local execution stay on this (trusted) side; the remote server
// must host a database encrypted under the same master key, schema, and
// workload — which is what this System was built from, so its keys and
// design metadata carry over. Close the returned System when done.
func (s *System) ConnectRemote(addr string) (*System, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &System{dep: s.dep.Remote(conn), conn: conn}, nil
}

// ConnectRemoteTLS is ConnectRemote over TLS; cfg must trust the server's
// certificate.
func (s *System) ConnectRemoteTLS(addr string, cfg *tls.Config) (*System, error) {
	conn, err := transport.DialTLS(addr, cfg)
	if err != nil {
		return nil, err
	}
	return &System{dep: s.dep.Remote(conn), conn: conn}, nil
}

// Close releases the System's resources: cached plans, the encrypted
// catalog's disk-backed tables (only on the System that Encrypt returned —
// remote Systems share it), and the network session, if any.
func (s *System) Close() error {
	s.dep.Client.Close()
	if s.conn != nil {
		return s.conn.Close()
	}
	// The encrypted catalog may hold disk-backed tables; flush their
	// segment metadata and release the file handles.
	s.dep.DB.Cat.Close()
	return nil
}

// IsRejected reports whether err is a server admission-control rejection
// (connection cap or in-flight query cap) — retryable, unlike a query
// error.
func IsRejected(err error) bool { return transport.IsRejected(err) }

// Rows is a plaintext query result.
type Rows struct {
	Cols []string
	Data [][]any

	// ClientTime is the measured trusted-side work, in seconds: decryption
	// and the residual local operators.
	ClientTime float64
	WireBytes  int64
	// KeyBytes counts the key-filter ciphertexts the client sent with its
	// RemoteSQL (see Plan text's "key filter" lines); WireBytes counts
	// results only.
	KeyBytes int64
	PlanText string
	// PlanCacheHit reports that this execution reused a cached plan
	// template (rebinding only the parameters) instead of planning from
	// scratch.
	PlanCacheHit bool

	wall float64
}

// Total returns the measured wall time, in seconds, of the call that
// produced the rows.
func (r *Rows) Total() float64 { return r.wall }

// Query executes SQL through the encrypted split-execution path.
func (s *System) Query(sql string) (*Rows, error) {
	start := time.Now()
	res, err := s.dep.Client.Query(sql, nil)
	if err != nil {
		return nil, err
	}
	return rowsFromResult(res, start), nil
}

// rowsFromResult converts a client result for a call that began at start.
func rowsFromResult(res *client.Result, start time.Time) *Rows {
	r := &Rows{
		Cols:         res.Cols,
		Data:         rowsData(res.Rows),
		ClientTime:   res.ClientTime.Seconds(),
		WireBytes:    res.WireBytes,
		KeyBytes:     res.KeyBytes,
		PlanText:     res.PlanText,
		PlanCacheHit: res.PlanCacheHit,
	}
	r.wall = time.Since(start).Seconds()
	return r
}

// rowsData converts engine rows into the facade's Go values.
func rowsData(rows [][]value.Value) [][]any {
	var data [][]any
	for _, row := range rows {
		vals := make([]any, len(row))
		for i, v := range row {
			vals[i] = fromValue(v)
		}
		data = append(data, vals)
	}
	return data
}

// Stmt is a prepared statement bound to a System: parse once, execute many
// times with different parameter values. Repeated executions of the same
// parameter-kind combination reuse a cached plan template (only the
// parameters are re-encrypted). Preparation is client-side only: on a
// remote System every execution ships its RemoteSQL as one query frame.
type Stmt struct {
	st     *client.Stmt
	closed atomic.Bool
}

// ErrStmtClosed is what Stmt.Query returns once the statement is closed.
var ErrStmtClosed = errors.New("monomi: statement is closed")

// Prepare parses a SQL query for repeated execution. Parameters appear in
// the SQL as :name placeholders.
func (s *System) Prepare(sql string) (*Stmt, error) {
	st, err := s.dep.Client.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{st: st}, nil
}

// Query executes the statement with one set of parameter values. Values
// may be int, int64, float64, string, bool, []byte, or nil (NULL); use
// DateParam for date-typed parameters.
func (st *Stmt) Query(params map[string]any) (*Rows, error) {
	start := time.Now()
	if st.closed.Load() {
		return nil, ErrStmtClosed
	}
	vals := make(map[string]value.Value, len(params))
	for name, v := range params {
		cv, err := paramValue(v)
		if err != nil {
			return nil, fmt.Errorf("monomi: parameter %s: %w", name, err)
		}
		vals[name] = cv
	}
	res, err := st.st.Execute(vals)
	if err != nil {
		return nil, err
	}
	return rowsFromResult(res, start), nil
}

// SQL returns the statement's source text.
func (st *Stmt) SQL() string { return st.st.SQL() }

// Close ends the statement's life: later Query calls return ErrStmtClosed.
// Cached plans belong to the System's plan cache (shared across statements
// of one shape); System.Close drops those.
func (st *Stmt) Close() error {
	st.closed.Store(true)
	return nil
}

// DateParam converts a "YYYY-MM-DD" string into a date-typed parameter
// value for Stmt.Query.
func DateParam(s string) (any, error) {
	d, err := value.ParseDate(s)
	if err != nil {
		return nil, err
	}
	return value.NewDate(d), nil
}

// paramValue converts a Go value into a query parameter.
func paramValue(v any) (value.Value, error) {
	switch x := v.(type) {
	case nil:
		return value.NewNull(), nil
	case value.Value:
		return x, nil
	case bool:
		return value.NewBool(x), nil
	case int:
		return value.NewInt(int64(x)), nil
	case int64:
		return value.NewInt(x), nil
	case float64:
		return value.NewFloat(x), nil
	case string:
		return value.NewStr(x), nil
	case []byte:
		return value.NewBytes(x), nil
	}
	return value.Value{}, fmt.Errorf("unsupported parameter type %T", v)
}

// PlanCacheStats reports the client plan cache's counters.
type PlanCacheStats = client.PlanCacheStats

// PlanCacheStats returns the trusted client's plan-cache counters.
func (s *System) PlanCacheStats() PlanCacheStats { return s.dep.Client.PlanCacheStats() }

// ResetPlanCache drops every cached plan and parsed query, forcing
// subsequent executions to plan from scratch (counters are kept).
// Benchmarks use it to compare cold planning against the warm fast path.
func (s *System) ResetPlanCache() { s.dep.Client.ResetPlanCache() }

// Stats reports the untrusted server's cumulative access-path and storage
// counters.
type Stats struct {
	// IndexLookups counts secondary-index probes over the System's
	// lifetime: point lookups, range scans, IN elements, ordered
	// emissions, and hash-join builds served from an index.
	IndexLookups int64
	// RowsSkippedByIndex counts rows those probes avoided reading
	// compared to full scans of the same tables.
	RowsSkippedByIndex int64
	// EncBytes is the resident encrypted heap footprint after ciphertext
	// dictionary interning; EncRawBytes is what it would be with every
	// ciphertext stored inline. EncRawBytes/EncBytes > 1 is the interning
	// saving (DET ciphertexts of repeated plaintexts are identical, so
	// low-cardinality columns intern well).
	EncBytes    int64
	EncRawBytes int64
	// PageReads / CacheHits / CacheMisses / PageBytesRead are the disk
	// backend's cumulative physical-read counters across the encrypted
	// tables (all zero on the in-memory backend): pages read from disk,
	// block-cache lookups served without a read, lookups that went to
	// disk, and the physical bytes those reads moved.
	PageReads     int64
	CacheHits     int64
	CacheMisses   int64
	PageBytesRead int64
}

// CacheHitRate is the disk backend's block-cache hit fraction (1 when no
// page lookups happened, e.g. on the in-memory backend).
func (st Stats) CacheHitRate() float64 {
	io := storage.IOStats{CacheHits: st.CacheHits, CacheMisses: st.CacheMisses}
	return io.HitRate()
}

// InternRatio is the dictionary-interning space saving: raw over resident
// bytes (1 = nothing interned).
func (st Stats) InternRatio() float64 {
	if st.EncBytes == 0 {
		return 1
	}
	return float64(st.EncRawBytes) / float64(st.EncBytes)
}

// Stats returns the server-side counters. On a remote System the engine
// counters are zero — they live in the remote process — but the storage
// footprint (shared metadata) is still reported.
func (s *System) Stats() Stats {
	st := Stats{
		EncBytes:    s.dep.DB.Cat.TotalBytes(),
		EncRawBytes: s.dep.DB.Cat.TotalRawBytes(),
	}
	io := s.dep.DB.Cat.IO()
	st.PageReads, st.CacheHits = io.PageReads, io.CacheHits
	st.CacheMisses, st.PageBytesRead = io.CacheMisses, io.BytesRead
	if s.dep.Client.Srv != nil {
		st.IndexLookups, st.RowsSkippedByIndex = s.dep.Client.Srv.Engine.IndexStats()
	}
	return st
}

// QueryPlaintext executes SQL directly on the plaintext database (the
// unencrypted baseline used for comparisons).
func (s *System) QueryPlaintext(sql string) (*Rows, error) {
	start := time.Now()
	res, err := s.dep.ExecutePlain(sql)
	if err != nil {
		return nil, err
	}
	r := &Rows{Cols: res.Cols, Data: rowsData(res.Rows)}
	r.wall = time.Since(start).Seconds()
	return r, nil
}

// SchemeCensus describes one column's encryption in the design.
type SchemeCensus struct {
	Table      string
	Expr       string // column name or precomputed expression
	Scheme     string // RND | HOM | SEARCH | DET | OPE
	Precompute bool
}

// Design returns the chosen physical design for inspection (the security
// report of §8.7 derives from this).
func (s *System) Design() []SchemeCensus {
	var out []SchemeCensus
	for _, it := range s.dep.Design.Design.Items {
		out = append(out, SchemeCensus{
			Table:      it.Table,
			Expr:       it.ExprSQL(),
			Scheme:     it.Scheme.String(),
			Precompute: it.IsPrecomputed(),
		})
	}
	return out
}

// DesignStats reports the designer's ILP size and estimated footprint.
func (s *System) DesignStats() (vars, constraints int, plainBytes, encBytes int64) {
	return s.dep.Design.Vars, s.dep.Design.Constraints,
		s.dep.Plain.TotalBytes(), s.dep.DB.TotalBytes()
}

// --- conversions ---

func colType(t ColType) storage.ColType {
	switch t {
	case Int:
		return storage.TInt
	case Float:
		return storage.TFloat
	case String:
		return storage.TStr
	case Date:
		return storage.TDate
	}
	return storage.TInt
}

func toValue(t storage.ColType, v any) (value.Value, error) {
	if v == nil {
		return value.NewNull(), nil
	}
	switch t {
	case storage.TInt:
		switch x := v.(type) {
		case int:
			return value.NewInt(int64(x)), nil
		case int64:
			return value.NewInt(x), nil
		}
	case storage.TFloat:
		switch x := v.(type) {
		case float64:
			return value.NewFloat(x), nil
		case int:
			return value.NewFloat(float64(x)), nil
		}
	case storage.TStr:
		if x, ok := v.(string); ok {
			return value.NewStr(x), nil
		}
	case storage.TDate:
		if x, ok := v.(string); ok {
			d, err := value.ParseDate(x)
			if err != nil {
				return value.Value{}, err
			}
			return value.NewDate(d), nil
		}
	}
	return value.Value{}, fmt.Errorf("cannot convert %T to %v", v, t)
}

func fromValue(v value.Value) any {
	switch v.K {
	case value.Null:
		return nil
	case value.Int, value.Bool:
		return v.I
	case value.Float:
		return v.F
	case value.Str:
		return v.S
	case value.Date:
		return value.FormatDate(v.I)
	case value.Bytes:
		return v.B
	}
	return nil
}
