package client

// Result decoding: the one routine that turns server rows into plaintext
// rows, for both wires. A RemotePart's outputs are resolved once into column
// decoders (cipher derived, Paillier group located) — once per cached
// template — so nothing inside the row loop renders a label, takes a lock or
// builds a string.

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/enc"
	"repro/internal/engine"
	"repro/internal/packing"
	"repro/internal/planner"
	"repro/internal/value"
	"repro/internal/wire"
)

// ErrMalformedResult marks a remote result the client cannot read: a cell the
// plan's output mode cannot interpret, such as a GROUP_CONCAT column that is
// not a decodable blob, or a result stream whose frames are corrupt
// (wire.ErrCorrupt).
var ErrMalformedResult = errors.New("malformed remote result")

// parallelDecodeRows is the batch size from which decode splits the rows
// across its workers; a smaller batch (a point lookup, a ~100-row range)
// costs less to decode than a goroutine hand-off and runs inline.
const parallelDecodeRows = 1024

// colDecoder is one planner.Output resolved for decoding.
type colDecoder struct {
	out   *planner.Output
	ciph  enc.Cipher         // OutDecrypt, OutConcatAgg
	ct    value.Kind         // OutDecrypt, OutConcatAgg: the ciphertext's kind
	memo  memo               // OutDecrypt, OutConcatAgg
	agg   *engine.BuiltinAgg // OutConcatAgg: the fold, reset per cell
	group *enc.GroupMeta     // OutHomSum: the ciphertext group and the slot in it
	slot  int
}

// decoder decodes the batches of one RemotePart. Its ciphers and memos are
// scratch state: every execution decodes on its own clone, and a clone keeps
// one peer per extra worker, so the memos of every worker span all the
// batches the clone decodes. A compiled part's decoder pools its idle clones
// (acquire, release): a warm execution reuses one, peers and memo storage
// included, instead of building it, and a GC drops the clones no execution
// took back.
type decoder struct {
	c     *Client
	cols  []colDecoder
	peers []*decoder // decode's workers 1..n-1, cloned on first use
	pool  sync.Pool  // idle clones of this decoder, memos empty
}

// newDecoder resolves each output of part once. A HOM output whose ciphertext
// group the client's metadata lacks fails here, before any row: the planner
// emits one only for a HOM item of the design the database was encrypted under.
func (c *Client) newDecoder(part *planner.RemotePart) (*decoder, error) {
	d := &decoder{c: c, cols: make([]colDecoder, len(part.Outputs))}
	for j := range part.Outputs {
		o := &part.Outputs[j]
		col := &d.cols[j]
		col.out, col.memo = o, newMemo(o)
		var err error
		switch o.Mode {
		case planner.OutPlain:
		case planner.OutDecrypt:
			col.ciph, col.ct = c.Keys.Cipher(o.Item), o.Item.CiphertextKind()
		case planner.OutConcatAgg:
			col.ciph, col.ct, col.agg = c.Keys.Cipher(o.Item), o.Item.CiphertextKind(), engine.NewBuiltinAgg(o.Agg, false)
		case planner.OutHomSum:
			meta, ok := c.meta[o.HomTable]
			if !ok {
				err = fmt.Errorf("no encrypted table metadata for %s", o.HomTable)
			} else if col.group, col.slot = meta.FindGroupColumn(o.HomExpr); col.group == nil {
				err = fmt.Errorf("no ciphertext group packs %s on %s", o.HomExpr, o.HomTable)
			}
		default:
			err = fmt.Errorf("unknown output mode %v", o.Mode)
		}
		if err != nil {
			return nil, fmt.Errorf("output %s: %w", o.Name, err)
		}
	}
	return d, nil
}

// decode converts one batch of server rows into plaintext rows cut from one
// arena and reports the decryptions performed, splitting a large batch into
// one row range per worker: d decodes the first, its peers the rest. Input
// row i becomes output row i whichever worker decodes it, so row order does
// not depend on workers, and the error is the first failing row's, as at one
// worker. d must be the calling goroutine's clone.
func (d *decoder) decode(rows [][]value.Value, workers int) ([][]value.Value, int64, error) {
	w := len(d.cols)
	arena := make([]value.Value, len(rows)*w)
	out := make([][]value.Value, len(rows))
	for i := range out {
		out[i] = arena[i*w : (i+1)*w : (i+1)*w]
	}
	if workers == 1 || len(rows) < parallelDecodeRows {
		n, err := d.decodeRange(rows, out)
		return out, n, err
	}
	for len(d.peers) < workers-1 {
		d.peers = append(d.peers, d.clone())
	}
	counts := make([]int64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		lo, hi := len(rows)*k/workers, len(rows)*(k+1)/workers
		wk := d
		if k > 0 {
			wk = d.peers[k-1]
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			counts[k], errs[k] = wk.decodeRange(rows[lo:hi], out[lo:hi])
		}(k)
	}
	wg.Wait()
	var n int64
	for _, c := range counts {
		n += c
	}
	for _, err := range errs {
		if err != nil {
			return out, n, err
		}
	}
	return out, n, nil
}

// clone copies the decoder for another execution or worker, with empty memos,
// fold states of its own and no peers: each Cipher carries the scratch its
// rounds run in.
func (d *decoder) clone() *decoder {
	cols := append([]colDecoder(nil), d.cols...)
	for i := range cols {
		cols[i].memo = newMemo(cols[i].out)
		if cols[i].agg != nil {
			cols[i].agg = engine.NewBuiltinAgg(cols[i].out.Agg, false)
		}
	}
	return &decoder{c: d.c, cols: cols}
}

// acquire returns a clone of d for one execution: an idle one from d's pool,
// or a new one. Its memos are empty, as a new clone's are.
func (d *decoder) acquire() *decoder {
	if x, ok := d.pool.Get().(*decoder); ok {
		return x
	}
	return d.clone()
}

// release empties the memos of x, a clone acquire returned, and of its
// peers, and pools it for the next execution. Nothing of the execution x
// decoded, a failed one included, survives into the next.
func (d *decoder) release(x *decoder) {
	x.reset()
	d.pool.Put(x)
}

// reset empties the memos of d and its peers, keeping their storage.
func (d *decoder) reset() {
	for i := range d.cols {
		d.cols[i].memo.reset(memoOff(d.cols[i].out))
	}
	for _, p := range d.peers {
		p.reset()
	}
}

// decodeRange decodes rows into out on the calling goroutine. It walks row by
// row: a cell is a cache line, so a column-wise walk would pull the whole
// batch through the CPU cache once per column.
func (d *decoder) decodeRange(rows, out [][]value.Value) (int64, error) {
	var n int64
	for i, row := range rows {
		if len(row) != len(d.cols) {
			return n, fmt.Errorf("%w: row has %d cells, plan expects %d", ErrMalformedResult, len(row), len(d.cols))
		}
		for j := range d.cols {
			v, err := d.decodeCell(&d.cols[j], row[j], &n)
			if err != nil {
				return n, fmt.Errorf("output %s: %w", d.cols[j].out.Name, err)
			}
			out[i][j] = v
		}
	}
	return n, nil
}

// decodeCell converts one server value into its plaintext form, adding the
// decryptions it performs to n.
func (d *decoder) decodeCell(col *colDecoder, v value.Value, n *int64) (value.Value, error) {
	switch col.out.Mode {
	case planner.OutDecrypt:
		return d.decrypt(col, v, n)
	case planner.OutConcatAgg:
		if v.IsNull() {
			return value.NewNull(), nil
		}
		if v.K != value.Bytes {
			return value.Value{}, fmt.Errorf("%w: group_concat cell of kind %v", ErrMalformedResult, v.K)
		}
		return d.foldConcat(col, v.B, n)
	case planner.OutHomSum:
		return d.decodeHomSum(col, v, n)
	}
	return v, nil // OutPlain
}

// decrypt decrypts one value of col through col's memo.
func (d *decoder) decrypt(col *colDecoder, cv value.Value, n *int64) (value.Value, error) {
	if cv.IsNull() {
		return value.NewNull(), nil
	}
	// A cell of another kind is no ciphertext of this column (an integer
	// would decrypt as an empty DET string); the memo keys on Int or Bytes.
	if cv.K != col.ct {
		return value.Value{}, fmt.Errorf("%w: ciphertext cell of kind %v", ErrMalformedResult, cv.K)
	}
	if pv, ok := col.memo.get(cv); ok {
		return pv, nil
	}
	pv, err := col.ciph.Decrypt(cv)
	if err != nil {
		return value.Value{}, err
	}
	*n++
	col.memo.put(cv, pv)
	return pv, nil
}

// foldConcat decrypts each element of a GROUP_CONCAT blob and folds it into
// col's aggregate state — the engine's builtin, so a group's aggregate is
// the one the plaintext twin computes — reading the blob frame by frame: no
// element outlives its fold step. A conditional SUM's planner.RejectedRow
// element is a row its condition rejected, worth 0; its NULL element is a
// matched row's NULL summand, which the SUM skips.
func (d *decoder) foldConcat(col *colDecoder, blob []byte, n *int64) (value.Value, error) {
	col.agg.Reset()
	var arg [1]value.Value
	wd := wire.NewDecoder(blob)
	for pos := 0; pos < len(blob); {
		cv, k, err := wd.Value(pos, len(blob))
		if err != nil {
			return value.Value{}, fmt.Errorf("%w: group_concat blob: %w", ErrMalformedResult, err)
		}
		pos += k
		pv := value.NewInt(0)
		if !col.out.Conditional || cv.K != planner.RejectedRow.K {
			if pv, err = d.decrypt(col, cv, n); err != nil {
				return value.Value{}, err
			}
		}
		arg[0] = pv
		if err := col.agg.Add(arg[:]); err != nil {
			return value.Value{}, err
		}
	}
	return col.agg.Result()
}

// decodeHomSum finishes grouped homomorphic addition for one group.
func (d *decoder) decodeHomSum(col *colDecoder, v value.Value, n *int64) (value.Value, error) {
	if v.IsNull() {
		return value.NewNull(), nil
	}
	pk := d.c.Keys.Paillier()
	sum, err := packing.DecodeSumResult(v.B, pk.CiphertextSize())
	if err != nil {
		return value.Value{}, err
	}
	if sum.Product == nil && len(sum.Partials) == 0 {
		if sum.SawRows {
			// Rows existed but none matched a conditional sum: 0.
			return value.NewInt(0), nil
		}
		// SQL SUM over an empty relation is NULL.
		return value.NewNull(), nil
	}
	sums, decrypts, err := packing.ClientSums(pk, col.group.Layout, sum, d.c.packCache)
	if err != nil {
		return value.Value{}, err
	}
	*n += int64(decrypts)
	return value.NewInt(sums[col.slot]), nil
}
