package planner

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/enc"
	"repro/internal/value"
)

// OutputMode says how the client turns one RemoteSQL output column into a
// plaintext value.
type OutputMode uint8

// Output modes.
const (
	// OutPlain passes the server value through (COUNT results, row counts).
	OutPlain OutputMode = iota
	// OutDecrypt decrypts a single ciphertext with the item's key.
	OutDecrypt
	// OutHomSum decodes a PAILLIER_SUM wire blob and extracts one packed
	// column's total (grouped homomorphic addition, §5.3).
	OutHomSum
	// OutConcatAgg decodes a GROUP_CONCAT blob, decrypts each element, and
	// folds them with Agg — the paper's GROUP() operator with client-side
	// aggregation.
	OutConcatAgg
)

func (m OutputMode) String() string {
	switch m {
	case OutPlain:
		return "plain"
	case OutDecrypt:
		return "decrypt"
	case OutHomSum:
		return "homsum"
	case OutConcatAgg:
		return "concat"
	}
	return "?"
}

// Output describes one column of a RemoteSQL result.
type Output struct {
	Name string // column name in the client-side temp table
	Mode OutputMode
	Item *enc.Item   // OutDecrypt / OutConcatAgg: decryption key item
	Agg  ast.AggFunc // OutConcatAgg: client-side fold
	// NullAsZero marks an OutConcatAgg conditional SUM: the server
	// concatenates NULL for a row its condition rejects, which the fold
	// counts as that row's 0.
	NullAsZero bool
	// OutHomSum: which packed expression to extract.
	HomTable string
	HomExpr  string
	Kind     value.Kind // plaintext kind of the produced column
}

// RemotePart is one RemoteSQL operator: a query the untrusted server
// executes over encrypted data, whose decrypted output materializes as a
// client-side temp table.
type RemotePart struct {
	Name    string // temp table name ("r0", "r1", ...)
	Query   *ast.Query
	Outputs []Output

	// Cost-model estimates, filled by costPlan.
	EstRows  float64
	EstBytes float64
	// Access is the costed access path ("scan" or "index(col) est-sel=…"),
	// filled by costPlan when Context.Indexes is on; empty otherwise.
	Access string
	// KeyFilter, when set, restricts the part to the keys of another temp
	// table at run time (keyfilter.go).
	KeyFilter *KeyFilter
}

// Plan is a split client/server execution plan.
type Plan struct {
	// Subplans materialize temp tables needed by Local (sub-fetches for
	// locally-evaluated subqueries, unflattenable derived tables). They
	// run before Remote.
	Subplans []*Subplan
	// Remote is the main RemoteSQL part (nil only for pathological plans).
	Remote *RemotePart
	// Local is the residual query over the temp tables; nil when the
	// decrypted remote output is the final result.
	Local *ast.Query

	// UsedItems is the BestSet: every ⟨value, scheme⟩ item the plan relies
	// on (the designer unions these across queries).
	UsedItems []enc.Item
	// Prefilter notes that §5.4 conservative pre-filtering was applied.
	Prefilter bool
	// NoCache marks the plan untemplatable: some pass baked a
	// parameter-derived constant into the plan in a form rebinding cannot
	// reproduce (e.g. the §5.4 pre-filter's count threshold). The plan is
	// still valid for this execution; it just must not be cached by shape.
	NoCache bool

	// Cost-model estimates (seconds), filled by costPlan.
	EstServer   float64
	EstTransfer float64
	EstClient   float64
}

// EstTotal is the plan's total estimated time.
func (p *Plan) EstTotal() float64 { return p.EstServer + p.EstTransfer + p.EstClient }

// Subplan is a named child plan whose result becomes a temp table.
type Subplan struct {
	Name string
	Plan *Plan
}

// Describe renders a human-readable plan tree (for logs and the examples).
func (p *Plan) Describe() string {
	var b strings.Builder
	p.describe(&b, 0)
	return b.String()
}

func (p *Plan) describe(b *strings.Builder, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, sp := range p.Subplans {
		fmt.Fprintf(b, "%sSubplan %s:\n", ind, sp.Name)
		sp.Plan.describe(b, depth+1)
	}
	if p.Remote != nil {
		fmt.Fprintf(b, "%sRemoteSQL [%s]: %s\n", ind, p.Remote.Name, p.Remote.Query.SQL())
		if p.Remote.Access != "" {
			fmt.Fprintf(b, "%s  access %s\n", ind, p.Remote.Access)
		}
		if kf := p.Remote.KeyFilter; kf != nil {
			fmt.Fprintf(b, "%s  key filter %s IN %s.%s\n", ind, kf.Column, kf.Source, kf.SourceColumn)
		}
		for _, o := range p.Remote.Outputs {
			fmt.Fprintf(b, "%s  out %s (%s)\n", ind, o.Name, o.Mode)
		}
	}
	if p.Local != nil {
		fmt.Fprintf(b, "%sLocal: %s\n", ind, p.Local.SQL())
	}
	if p.Prefilter {
		fmt.Fprintf(b, "%sPre-filter: enabled\n", ind)
	}
}

// AllParts returns every RemotePart in the plan tree (subplans first).
func (p *Plan) AllParts() []*RemotePart {
	var parts []*RemotePart
	for _, sp := range p.Subplans {
		parts = append(parts, sp.Plan.AllParts()...)
	}
	if p.Remote != nil {
		parts = append(parts, p.Remote)
	}
	return parts
}
