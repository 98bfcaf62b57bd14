package client

// The client half of key filters (planner/keyfilter.go). A remote part with
// a filter runs after its source temp table exists (runPlan); the runner then
// collects the source column's distinct non-NULL keys, encrypts each under the
// part's DET key item, and appends `key_det IN (:kf0, …)` to this execution's
// copy of the RemoteSQL's top block — the plan, and a cached template, keep
// the part's query as it is. A key list is sent only when its bytes are fewer
// than the result bytes it is estimated to save: the part's estimated result
// times the share of the column's distinct values the list leaves out. A list
// naming nearly every value (TPC-H Q20's parts and suppliers) saves nothing
// and stays home. An empty list means no row of the part can reach the
// residual, so the part is not sent either.

import (
	"fmt"
	"maps"
	"strconv"

	"repro/internal/ast"
	"repro/internal/planner"
	"repro/internal/storage"
	"repro/internal/value"
)

// sourceReady reports whether part can run: it has no key filter, or the
// filter's source table is materialized.
func sourceReady(part *planner.RemotePart, cat *storage.Catalog) bool {
	if part == nil || part.KeyFilter == nil {
		return true
	}
	_, err := cat.Table(part.KeyFilter.Source)
	return err == nil
}

// applyKeyFilter returns the query and parameters to send for part: q and
// params unchanged when the part has no filter or the filter is left off,
// q restricted to the source's keys otherwise, and a nil query when there are
// no keys. It counts the keys' ciphertext bytes as res.KeyBytes.
func (c *Client) applyKeyFilter(part *planner.RemotePart, q *ast.Query, params map[string]value.Value,
	cat *storage.Catalog, res *Result) (*ast.Query, map[string]value.Value, error) {
	kf := part.KeyFilter
	if kf == nil {
		return q, params, nil
	}
	keys, size, ok, err := c.filterKeys(part, cat)
	if err != nil || !ok {
		return q, params, err
	}
	res.KeyBytes += size
	if len(keys) == 0 {
		return nil, nil, nil
	}
	list := make([]ast.Expr, len(keys))
	bound := make(map[string]value.Value, len(params)+len(keys))
	maps.Copy(bound, params)
	for i, k := range keys {
		name := "kf" + strconv.Itoa(i)
		list[i] = &ast.Param{Name: name}
		bound[name] = k
	}
	fq := *q // the rest of q is shared read-only
	fq.Where = ast.AndAll([]ast.Expr{q.Where, &ast.InExpr{E: kf.Target.Clone(), List: list}})
	return &fq, bound, nil
}

// filterKeys encrypts the distinct non-NULL keys of part's filter source
// column, in first-seen order, and totals their ciphertext bytes. ok=false
// leaves the filter off: a key is not of the target's plaintext kind, so
// equal values might not share a DET ciphertext (the residual's own
// comparison then decides), or the list would cost at least the bytes it is
// estimated to save. The keys are counted before any
// is encrypted, so a list naming the whole column costs one encryption.
func (c *Client) filterKeys(part *planner.RemotePart, cat *storage.Catalog) (keys []value.Value, size int64, ok bool, err error) {
	kf := part.KeyFilter
	src, err := cat.Table(kf.Source)
	if err != nil {
		return nil, 0, false, err
	}
	col := src.Schema.ColIndex(kf.SourceColumn)
	if col < 0 {
		return nil, 0, false, fmt.Errorf("key filter source %s has no column %s", kf.Source, kf.SourceColumn)
	}
	rows, _, err := src.ScanRows(0, src.NumRows())
	if err != nil {
		return nil, 0, false, err
	}
	var plain []value.Value
	seen := make(map[string]bool)
	for _, row := range rows {
		k := row[col]
		if k.IsNull() {
			continue
		}
		if k.K != kf.Item.PlainKind {
			return nil, 0, false, nil
		}
		if hk := k.HashKey(); !seen[hk] {
			seen[hk] = true
			plain = append(plain, k)
		}
	}
	saved := part.EstBytes
	if kf.NDV > 0 {
		saved *= 1 - float64(len(plain))/kf.NDV
	}
	cipher := c.Keys.Cipher(kf.Item)
	keys = make([]value.Value, len(plain))
	for i, k := range plain {
		ct, err := cipher.Encrypt(k)
		if err != nil {
			return nil, 0, false, nil
		}
		if size += int64(ct.Size()); float64(size) >= saved {
			return nil, 0, false, nil
		}
		keys[i] = ct
	}
	return keys, size, true, nil
}
