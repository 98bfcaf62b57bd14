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

	"repro/internal/ast"
	"repro/internal/enc"
	"repro/internal/packing"
	"repro/internal/planner"
	"repro/internal/value"
	"repro/internal/wire"
)

// ErrMalformedResult marks a remote result cell the plan's output mode cannot
// interpret, such as a GROUP_CONCAT column that is not a decodable blob.
var ErrMalformedResult = errors.New("malformed remote result")

// parallelDecodeRows is the batch size from which decode splits the rows
// across its workers; a smaller batch (a point lookup, a ~100-row range)
// costs less to decode than a goroutine hand-off and runs inline.
const parallelDecodeRows = 1024

// colDecoder is one planner.Output resolved for decoding.
type colDecoder struct {
	out   *planner.Output
	ciph  enc.Cipher     // OutDecrypt, OutConcatAgg
	memo  memo           // OutDecrypt, OutConcatAgg
	group *enc.GroupMeta // OutHomSum: the ciphertext group and the slot in it
	slot  int
}

// decoder decodes the batches of one RemotePart. Its ciphers and memos are
// scratch state: every goroutine decodes on its own clone.
type decoder struct {
	c    *Client
	cols []colDecoder
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
		case planner.OutDecrypt, planner.OutConcatAgg:
			col.ciph = c.Keys.Cipher(o.Item)
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
// one row range per worker. Input row i becomes output row i whichever worker
// decodes it, so row order does not depend on workers. d must be the calling
// goroutine's clone.
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
	counts := make([]int64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		lo, hi := len(rows)*k/workers, len(rows)*(k+1)/workers
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			counts[k], errs[k] = d.clone().decodeRange(rows[lo:hi], out[lo:hi])
		}(k)
	}
	wg.Wait()
	var n int64
	for _, c := range counts {
		n += c
	}
	return out, n, errors.Join(errs...)
}

// clone copies the decoder for another goroutine, with empty memos: each
// Cipher carries the scratch its rounds run in.
func (d *decoder) clone() *decoder {
	cols := append([]colDecoder(nil), d.cols...)
	for i := range cols {
		cols[i].memo = newMemo(cols[i].out)
	}
	return &decoder{c: d.c, cols: cols}
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
		vals, err := wire.DecodeAll(v.B)
		if err != nil {
			return value.Value{}, fmt.Errorf("%w: group_concat blob: %w", ErrMalformedResult, err)
		}
		return d.foldConcat(col, vals, n)
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
	// Ciphertexts are integers or bytes; the memo keys on nothing else.
	if cv.K != value.Int && cv.K != value.Bytes {
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

// foldConcat decrypts each GROUP_CONCAT element and folds with the output's
// aggregate.
func (d *decoder) foldConcat(col *colDecoder, vals []value.Value, n *int64) (value.Value, error) {
	agg := col.out.Agg
	var acc value.Value
	count := 0
	for _, cv := range vals {
		if cv.IsNull() {
			continue
		}
		pv, err := d.decrypt(col, cv, n)
		if err != nil {
			return value.Value{}, err
		}
		if count == 0 {
			acc = pv
		} else {
			switch agg {
			case ast.AggSum:
				acc = value.Add(acc, pv)
			case ast.AggMin:
				if value.Compare(pv, acc) < 0 {
					acc = pv
				}
			case ast.AggMax:
				if value.Compare(pv, acc) > 0 {
					acc = pv
				}
			case ast.AggCount:
				// handled by count below
			}
		}
		count++
	}
	if agg == ast.AggCount {
		return value.NewInt(int64(count)), nil
	}
	if count == 0 {
		// Conditional sums concat NULL for non-matching rows; if any rows
		// arrived at all, SUM(CASE ... ELSE 0) is 0, not NULL.
		if agg == ast.AggSum && len(vals) > 0 {
			return value.NewInt(0), nil
		}
		return value.NewNull(), nil
	}
	return acc, nil
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
