// Package enc defines MONOMI's encrypted physical design: which
// ⟨value, scheme⟩ pairs (§6.2) are materialized as encrypted columns on the
// untrusted server, how plaintext tables are transformed into encrypted
// ones, and how the trusted client's key store encrypts constants and
// decrypts results.
package enc

import (
	"fmt"
	"hash/fnv"

	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/value"
)

// Scheme enumerates the encryption schemes of Table 1.
type Scheme uint8

// The encryption schemes, ordered weakest-leakage-last for the security
// report (Table 3 counts columns by their weakest scheme).
const (
	RND    Scheme = iota // randomized AES-CTR: no server computation, no leakage
	HOM                  // Paillier (packed): SUM/AVG on server, no leakage
	SEARCH               // SWP-style: LIKE '%word%', reveals matching rows per token
	DET                  // deterministic: =, IN, GROUP BY, joins; reveals duplicates
	OPE                  // order-preserving: <, ORDER BY, MIN/MAX; reveals order
)

func (s Scheme) String() string {
	switch s {
	case RND:
		return "RND"
	case DET:
		return "DET"
	case OPE:
		return "OPE"
	case HOM:
		return "HOM"
	case SEARCH:
		return "SEARCH"
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// Accepts reports whether the designer may encrypt plaintexts of kind k
// under the scheme: DET takes every kind but Float, whose cipher has no
// encoding for it; OPE and HOM take integers and dates; SEARCH takes
// strings; RND takes every kind.
func (s Scheme) Accepts(k value.Kind) bool {
	switch s {
	case DET:
		return k != value.Float
	case OPE, HOM:
		return k == value.Int || k == value.Date
	case SEARCH:
		return k == value.Str
	}
	return true
}

// suffix is the encrypted-column name suffix for the scheme.
func (s Scheme) suffix() string {
	switch s {
	case RND:
		return "rnd"
	case DET:
		return "det"
	case OPE:
		return "ope"
	case HOM:
		return "hom"
	case SEARCH:
		return "srch"
	}
	return "x"
}

// Item is one ⟨value, scheme⟩ pair: an encryption of a base column or of a
// precomputed per-row expression (§5.1), materialized in a table.
type Item struct {
	Table     string
	Expr      ast.Expr // a ColumnRef, or a per-row expression to precompute
	Scheme    Scheme
	PlainKind value.Kind // plaintext kind, needed for client-side decryption
	// JoinGroup, when non-empty, makes this DET item share its key with
	// every other item in the same group, so the server can evaluate
	// equi-joins across tables (CryptDB's JOIN onion played this role).
	// The designer assigns groups from the schema's key relationships.
	JoinGroup string
}

// IsPrecomputed reports whether the item encrypts a derived expression
// rather than a base column.
func (it *Item) IsPrecomputed() bool {
	_, isCol := it.Expr.(*ast.ColumnRef)
	return !isCol
}

// IndexKindOf is the secondary index the item's column carries, if any:
// DET preserves plaintext equality, so a hash index answers `=`/`IN` probes
// and hash-join builds; OPE preserves plaintext order, so an ordered index
// answers range predicates. The encrypted catalog and the plaintext
// baseline's mirror indexes both follow it.
func IndexKindOf(it *Item) (storage.IndexKind, bool) {
	switch it.Scheme {
	case DET:
		return storage.HashIndex, true
	case OPE:
		return storage.OrderedIndex, true
	}
	return 0, false
}

// CiphertextKind is the kind of the item's server-side values: integers for
// DET over integers, dates and booleans, bytes for every other scheme.
func (it *Item) CiphertextKind() value.Kind {
	if it.Scheme == DET && (it.PlainKind == value.Int || it.PlainKind == value.Date || it.PlainKind == value.Bool) {
		return value.Int
	}
	return value.Bytes
}

// ExprSQL renders the item's value expression canonically.
func (it *Item) ExprSQL() string { return it.Expr.SQL() }

// Key is the item's canonical identity: table, expression, and scheme.
func (it *Item) Key() string {
	return it.Table + "|" + it.ExprSQL() + "|" + it.Scheme.String()
}

// ColumnName is the encrypted column's name in the server-side table, e.g.
// "l_shipdate_ope" for a base column or "pc_1a2b3c4d_det" for a
// precomputed expression.
func (it *Item) ColumnName() string {
	if cr, ok := it.Expr.(*ast.ColumnRef); ok {
		return cr.Column + "_" + it.Scheme.suffix()
	}
	h := fnv.New32a()
	h.Write([]byte(it.ExprSQL()))
	return fmt.Sprintf("pc_%08x_%s", h.Sum32(), it.Scheme.suffix())
}

// KeyLabel is the key-derivation label for the item's subkey. Items in the
// same join group share a label (and therefore a key).
func (it *Item) KeyLabel() string {
	if it.JoinGroup != "" {
		return it.Scheme.String() + "/join:" + it.JoinGroup
	}
	return it.Scheme.String() + "/" + it.Table + "." + it.ExprSQL()
}

// RowIDColumn is the name of the row-identifier column added to tables that
// carry packed Paillier ciphertext files (§7).
const RowIDColumn = "row_id"

// Design is a physical design: the set of encrypted items to materialize,
// plus the Paillier layout policy (§5.2–§5.3).
type Design struct {
	Items []Item
	// GroupedAddition packs all HOM items of a table into one ciphertext
	// group so their aggregates cost one modular multiplication per row.
	GroupedAddition bool
	// MultiRowPacking packs multiple rows into each 1,024-bit plaintext.
	MultiRowPacking bool
}

// Contains reports whether the design has an item with the same identity.
func (d *Design) Contains(it Item) bool {
	k := it.Key()
	for i := range d.Items {
		if d.Items[i].Key() == k {
			return true
		}
	}
	return false
}

// Add inserts an item if an identical one is not already present.
func (d *Design) Add(it Item) {
	if !d.Contains(it) {
		d.Items = append(d.Items, it)
	}
}

// Merge adds every item of other into d.
func (d *Design) Merge(other *Design) {
	for _, it := range other.Items {
		d.Add(it)
	}
}

// TableItems returns the design's items for one table, preserving order.
func (d *Design) TableItems(table string) []Item {
	var out []Item
	for _, it := range d.Items {
		if it.Table == table {
			out = append(out, it)
		}
	}
	return out
}

// Find locates an item by table, expression SQL, and scheme.
func (d *Design) Find(table, exprSQL string, scheme Scheme) (*Item, bool) {
	for i := range d.Items {
		it := &d.Items[i]
		if it.Table == table && it.Scheme == scheme && it.ExprSQL() == exprSQL {
			return it, true
		}
	}
	return nil, false
}

// ColumnItem is a convenience constructor for a base-column item.
func ColumnItem(table, column string, scheme Scheme, kind value.Kind) Item {
	return Item{
		Table:     table,
		Expr:      &ast.ColumnRef{Column: column},
		Scheme:    scheme,
		PlainKind: kind,
	}
}

// ExprItem is a convenience constructor for a precomputed-expression item.
func ExprItem(table string, expr ast.Expr, scheme Scheme, kind value.Kind) Item {
	return Item{Table: table, Expr: expr, Scheme: scheme, PlainKind: kind}
}
