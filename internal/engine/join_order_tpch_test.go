package engine_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/client"
	"repro/internal/deploy"
	"repro/internal/designer"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/sqlparser"
	"repro/internal/tpch"
	"repro/internal/value"
)

// recorder hands the client's RemoteSQL to the server and keeps each
// statement with its parameters.
type recorder struct {
	client.Executor
	qs     []*ast.Query
	params []map[string]value.Value
}

func (r *recorder) Execute(q *ast.Query, params map[string]value.Value) (*server.Response, error) {
	r.qs, r.params = append(r.qs, q.Clone()), append(r.params, params)
	return r.Executor.Execute(q, params)
}

func (r *recorder) ExecuteStream(q *ast.Query, params map[string]value.Value, w io.Writer) (*server.StreamStats, error) {
	r.qs, r.params = append(r.qs, q.Clone()), append(r.params, params)
	return r.Executor.ExecuteStream(q, params, w)
}

// TestJoinOrderTPCH pins the join order of TPC-H Q7, Q19 and Q21 at smoke
// scale (SF 0.0005, MONOMI's design, indexes on): on the encrypted server
// over the RemoteSQL the client sends it, and on the plaintext baseline
// over the query text. Q7 and Q21 start from the nation their filter — in
// Q7 the one the nation OR implies — narrows; Q19 keeps lineitem, narrowed
// by the OR's implied filters, as its probe side.
func TestJoinOrderTPCH(t *testing.T) {
	cat, err := tpch.Generate(0.0005, 1)
	if err != nil {
		t.Fatal(err)
	}
	wl := map[string]string{}
	for _, n := range tpch.SupportedQueries() {
		wl[fmt.Sprintf("Q%02d", n)] = tpch.Queries[n]
	}
	opts := designer.MonomiOptions()
	opts.SpaceBudget = 2
	dep, err := deploy.Build(cat, wl, deploy.Spec{
		MasterKey: []byte("join-order"), PaillierBits: 256, Designer: opts, Prefilter: true, Indexes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := dep.Client.Executor().(*server.Server)
	rec := &recorder{Executor: srv}
	dep.Client.SetExecutor(rec)
	for _, c := range []struct {
		q    int
		want string
	}{
		{7, "n1 supplier lineitem orders customer n2"},
		{19, "lineitem part"},
		{21, "nation supplier l1 orders"},
	} {
		rec.qs, rec.params = nil, nil
		if _, err := dep.Client.Query(tpch.Queries[c.q], nil); err != nil {
			t.Fatalf("Q%d: %v", c.q, err)
		}
		var enc [][]string
		for i, q := range rec.qs {
			orders, err := engine.JoinOrders(srv.Engine, q, rec.params[i])
			if err != nil {
				t.Fatal(err)
			}
			enc = append(enc, orders...)
		}
		plain, err := engine.JoinOrders(dep.Engine, sqlparser.MustParse(tpch.Queries[c.q]), nil)
		if err != nil {
			t.Fatal(err)
		}
		for side, orders := range map[string][][]string{"encrypted": enc, "plaintext": plain} {
			if len(orders) != 1 || strings.Join(orders[0], " ") != c.want {
				t.Errorf("Q%d %s: join orders %v, want [%s]", c.q, side, orders, c.want)
			}
		}
	}
}
