// Package lint is MONOMI's static-analysis suite: four custom analyzers
// that enforce, at compile time, the invariants the paper's trust model
// (§3) and this repo's concurrency/error-handling contracts rest on but
// that no test can prove:
//
//   - trustflow: plaintext-bearing secrets — enc.KeyStore, the Paillier
//     private key, the keyed DET/OPE/RND/SEARCH scheme objects, and the
//     client-side decryption helpers — never flow into the untrusted
//     server-side packages (engine, storage, transport, wire, netsim,
//     server). See trustflow.go.
//   - wraperr: errors crossing the storage/transport/client package
//     boundaries wrap their cause with %w (errors.Is/As must see typed
//     sentinels like storage.ErrCorruptSegment and transport.RejectError
//     through every layer). See wraperr.go.
//   - atomicstats: engine.Stats / server.StreamStats fields captured by
//     go-spawned shard workers must be updated atomically — the class of
//     race PR 5 fixed by hand in the sharded stream producer. See
//     atomicstats.go.
//   - lockcrypt: no Paillier encryption/decryption or homomorphic fold
//     while holding a mutex — the plan-cache and block-cache hot paths
//     must never serialize big-int crypto behind a lock. See lockcrypt.go.
//
// The framework below is a deliberately small, dependency-free mirror of
// golang.org/x/tools/go/analysis (Analyzer / Pass / Diagnostic): the
// container this repo builds in has no module proxy access, so the suite
// runs on the standard library alone. Packages are loaded either from
// `go list -export` output (standalone mode) or from a cmd/go vet.cfg
// (go vet -vettool mode); both feed the same type-checked Pass.
//
// # Escape hatch
//
// A finding that is intentional — for example a test harness package that
// legitimately holds keys — can be suppressed with an annotation comment
// on the offending line or the line directly above it:
//
//	//monomi:trusted reason this package is the trusted-client test rig
//
// The justification text is mandatory: an annotation without one is
// itself reported, so every exception to the trust boundary is
// self-documenting. Annotations are honored by all four analyzers.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer so the suite could be rehosted
// on the real driver without touching analyzer logic.
type Analyzer struct {
	Name string // short lower-case identifier, used in diagnostics and flags
	Doc  string // one-paragraph description of what the check enforces
	Run  func(*Pass) error
}

// All is the monomi-lint suite in reporting order.
var All = []*Analyzer{Trustflow, Wraperr, Atomicstats, Lockcrypt}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// A Pass carries one type-checked package through one analyzer. Report
// appends to the harness's diagnostic list; annotation suppression is
// applied by the harness, not the analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // non-test source files, parsed with comments
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Posn     string         `json:"pos"` // Pos rendered as file:line:col
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// trustedAnnotation is the escape-hatch comment prefix. The rest of the
// comment line is the mandatory justification.
const trustedAnnotation = "//monomi:trusted"

// annotation is one parsed //monomi:trusted comment.
type annotation struct {
	pos           token.Position
	justification string
}

// parseAnnotations collects the //monomi:trusted annotations of a file,
// keyed by the lines they cover: the annotation's own line and, for a
// comment that stands alone on its line, the following line.
func parseAnnotations(fset *token.FileSet, f *ast.File) map[int]annotation {
	out := map[int]annotation{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, trustedAnnotation) {
				continue
			}
			rest := c.Text[len(trustedAnnotation):]
			a := annotation{
				pos:           fset.Position(c.Pos()),
				justification: strings.TrimSpace(rest),
			}
			// A justification must be separated from the marker; an
			// unseparated suffix (//monomi:trustedX) is not an annotation.
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue
			}
			// The annotation covers its own line (trailing-comment form)
			// and the line below it (line-above form).
			out[a.pos.Line] = a
			out[a.pos.Line+1] = a
		}
	}
	return out
}

// Analyze runs the given analyzers over one loaded package and returns
// surviving diagnostics plus any annotation hygiene findings. Findings on
// a line covered by a justified //monomi:trusted annotation are dropped;
// annotations with no justification are reported (analyzer "annotation")
// so the escape hatch cannot silently widen.
func Analyze(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	annots := map[string]map[int]annotation{} // filename → line → annotation
	var diags []Diagnostic
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		m := parseAnnotations(pkg.Fset, f)
		annots[name] = m
		seen := map[int]bool{}
		for _, a := range m {
			if seen[a.pos.Line] {
				continue
			}
			seen[a.pos.Line] = true
			if a.justification == "" {
				diags = append(diags, Diagnostic{
					Analyzer: "annotation",
					Pos:      a.pos,
					Message:  "monomi:trusted annotation requires a justification (\"//monomi:trusted <why this crosses the boundary>\")",
				})
			}
		}
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			report: func(d Diagnostic) {
				if m := annots[d.Pos.Filename]; m != nil {
					if an, ok := m[d.Pos.Line]; ok && an.justification != "" {
						return // justified exception
					}
				}
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	for i := range diags {
		diags[i].Posn = diags[i].Pos.String()
	}
	return diags, nil
}

// pathHasPrefix reports whether an import path equals prefix or lives in
// its subtree (prefix "a/b" matches "a/b" and "a/b/c", never "a/bc").
func pathHasPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// errorType is the universe error interface, for implements checks.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	return types.Implements(t, errorType) || types.Implements(types.NewPointer(t), errorType)
}
