// Package server is MONOMI's untrusted database server (Figure 1): an
// unmodified DBMS (our internal/engine) hosting the encrypted tables and
// ciphertext files, extended with the crypto UDFs that operate on
// ciphertexts without any access to decryption keys:
//
//   - PAILLIER_SUM(group, row_id) — grouped homomorphic addition (§5.3):
//     multiplies the packed Paillier ciphertexts of the matching rows.
//   - GROUP_CONCAT(x) — the paper's GROUP() operator: concatenates a
//     group's ciphertexts for client-side decryption and aggregation.
//   - SEARCH_MATCH(blob, token) — SWP keyword match for LIKE '%word%'.
//
// The server never sees plaintext: everything it stores and computes on is
// ciphertext, and the only key material it holds is the Paillier *public*
// modulus needed for homomorphic multiplication.
package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/crypto/search"
	"repro/internal/enc"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/packing"
	"repro/internal/value"
	"repro/internal/wire"
)

// Server hosts one encrypted database.
type Server struct {
	DB     *enc.DB
	Engine *engine.Engine
}

// New creates a server over an encrypted database. The server prices
// nothing: it reports the counters of the work it performed (engine.Stats),
// and the paper's §8.1 testbed model is applied to those counts on the
// trusted side. cfg is unused: the parameter stays only because the
// benchmark's layer harness (bench/layers.go), whose files are frozen,
// passes one; ROADMAP item 1(b) deletes it.
func New(db *enc.DB, cfg netsim.Config) *Server {
	s := &Server{DB: db, Engine: engine.New(db.Cat)}
	s.Engine.RegisterAgg("paillier_sum", s.newPaillierSum)
	s.Engine.RegisterAgg("group_concat", newGroupConcat)
	s.Engine.RegisterScalar("search_match", searchMatch)
	return s
}

// Deprecated: SetIndexes does nothing. The engine uses the indexes the
// encrypted tables declare (enc.DeclareIndexes); the method stays only
// because the benchmark's layer harness (bench/layers.go), whose files are
// frozen, calls it.
func (s *Server) SetIndexes(bool) {}

// Response carries an executed RemoteSQL result; Result.Stats counts the
// work performed.
type Response struct {
	Result    *engine.Result
	WireBytes int64 // result size on the wire
}

// Execute runs one RemoteSQL query over the encrypted data.
func (s *Server) Execute(q *ast.Query, params map[string]value.Value) (*Response, error) {
	res, err := s.Engine.Execute(q, params)
	if err != nil {
		return nil, err
	}
	return &Response{Result: res, WireBytes: res.Bytes()}, nil
}

// paillierSumState accumulates one group's row IDs for grouped homomorphic
// addition; Result performs the modular multiplications.
type paillierSumState struct {
	srv     *Server
	stats   *engine.Stats
	group   string
	rowIDs  []int
	sawRows bool // some input row arrived, even if its row_id was NULL
}

func (s *Server) newPaillierSum(st *engine.Stats) engine.AggState {
	return &paillierSumState{srv: s, stats: st}
}

// Add receives (group_name, row_id).
func (p *paillierSumState) Add(args []value.Value) error {
	if len(args) != 2 {
		return fmt.Errorf("server: PAILLIER_SUM expects (group, row_id)")
	}
	if p.group == "" {
		p.group = args[0].S
	}
	p.sawRows = true
	if args[1].IsNull() {
		// Conditional sums pass NULL for non-matching rows: the row
		// exists (sum is 0, not NULL) but contributes nothing.
		return nil
	}
	p.rowIDs = append(p.rowIDs, int(args[1].AsInt()))
	return nil
}

// Merge folds a shard partial into p: row-ID lists over disjoint row
// ranges simply concatenate, deferring all modular multiplication to
// Result.
func (p *paillierSumState) Merge(other engine.AggState) error {
	o, ok := other.(*paillierSumState)
	if !ok {
		return fmt.Errorf("server: PAILLIER_SUM merge of %T", other)
	}
	if p.group == "" {
		p.group = o.group
	} else if o.group != "" && o.group != p.group {
		return fmt.Errorf("server: PAILLIER_SUM merge across groups %q and %q", p.group, o.group)
	}
	p.sawRows = p.sawRows || o.sawRows
	if len(p.rowIDs) == 0 {
		p.rowIDs = o.rowIDs
	} else {
		p.rowIDs = append(p.rowIDs, o.rowIDs...)
	}
	return nil
}

// Result multiplies the matching ciphertexts and returns the wire blob.
func (p *paillierSumState) Result() (value.Value, error) {
	if p.group == "" || len(p.rowIDs) == 0 {
		// No matching rows: an empty sum result — no product, no
		// partials. SawRows tells the client whether the group was truly
		// empty (SUM = NULL) or merely unmatched (conditional SUM = 0).
		empty := &packing.SumResult{SawRows: p.sawRows}
		return value.NewBytes(empty.Encode(0)), nil
	}
	store, ok := p.srv.DB.Stores[p.group]
	if !ok {
		return value.Value{}, fmt.Errorf("server: no ciphertext group %q", p.group)
	}
	start := time.Now()
	res, err := packing.HomSum(store, p.rowIDs)
	if err != nil {
		return value.Value{}, err
	}
	// Atomic: grouped finalization fans Result calls across workers, and
	// every group's state shares the one execution-context Stats sink (see
	// the engine.AggState contract).
	atomic.AddInt64(&p.stats.UDFNanos, time.Since(start).Nanoseconds())
	atomic.AddInt64(&p.stats.ExtraBytes, res.ReadSize)
	return value.NewBytes(res.Encode(store.CipherBytes())), nil
}

// groupConcatState implements GROUP(): framed concatenation of a group's
// values.
type groupConcatState struct {
	buf []byte
}

func newGroupConcat(st *engine.Stats) engine.AggState { return &groupConcatState{} }

// Add appends one value.
func (g *groupConcatState) Add(args []value.Value) error {
	if len(args) != 1 {
		return fmt.Errorf("server: GROUP_CONCAT expects 1 argument")
	}
	var err error
	g.buf, err = wire.AppendValue(g.buf, args[0])
	return err
}

// Merge appends a shard partial's frames. Shards merge in row order, so the
// concatenation matches a sequential scan.
func (g *groupConcatState) Merge(other engine.AggState) error {
	o, ok := other.(*groupConcatState)
	if !ok {
		return fmt.Errorf("server: GROUP_CONCAT merge of %T", other)
	}
	if len(g.buf) == 0 {
		g.buf = o.buf
	} else {
		g.buf = append(g.buf, o.buf...)
	}
	return nil
}

// Result returns the framed blob.
func (g *groupConcatState) Result() (value.Value, error) {
	return value.NewBytes(g.buf), nil
}

// searchMatch implements SEARCH_MATCH(blob, token).
func searchMatch(st *engine.Stats, args []value.Value) (value.Value, error) {
	if len(args) != 2 {
		return value.Value{}, fmt.Errorf("server: SEARCH_MATCH expects (blob, token)")
	}
	if args[0].IsNull() || args[1].IsNull() {
		return value.NewBool(false), nil
	}
	return value.NewBool(search.Match(args[0].B, args[1].B)), nil
}
