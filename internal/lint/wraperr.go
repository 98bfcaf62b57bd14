package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// Wraperr enforces the error-wrapping contract of the packages whose
// errors cross process and layer boundaries: in internal/storage,
// internal/transport, internal/client and internal/wire, a fmt.Errorf that
// includes an underlying error must wrap it with %w, never flatten it with
// %v/%s. Flattening breaks errors.Is/errors.As on the typed sentinels these
// layers export or carry — storage.ErrCorruptSegment (every disk-integrity
// failure), wire.ErrCorrupt (every malformed result stream or value frame)
// and transport.RejectError (admission control) reach the facade
// (monomi.IsRejected) and the CI robustness suites through the client's
// result consumer, beside its own ErrMalformedResult; a single %v in the
// chain silently turns those matches into dead code.
var Wraperr = &Analyzer{
	Name: "wraperr",
	Doc:  "errors crossing storage/transport/client/wire boundaries must be wrapped with %w, not flattened with %v or %s",
	Run:  runWraperr,
}

// wraperrPackages are the subtrees whose errors must stay errors.Is-able.
var wraperrPackages = []string{
	"repro/internal/storage",
	"repro/internal/transport",
	"repro/internal/client",
	"repro/internal/wire",
}

func runWraperr(pass *Pass) error {
	inScope := false
	for _, p := range wraperrPackages {
		if pathHasPrefix(pass.Pkg.Path(), p) {
			inScope = true
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isPkgFunc(pass, call.Fun, "fmt", "Errorf") || len(call.Args) < 2 {
				return true
			}
			format, ok := constantString(pass, call.Args[0])
			if !ok {
				return true
			}
			verbs, exotic := formatVerbs(format)
			if exotic {
				return true // explicit indexes or * widths: don't guess
			}
			args := call.Args[1:]
			for i, verb := range verbs {
				if i >= len(args) {
					break // argument-count mismatch; go vet printf reports it
				}
				tv, ok := pass.TypesInfo.Types[args[i]]
				if !ok || tv.Type == nil {
					continue
				}
				if !implementsError(tv.Type) {
					continue
				}
				if verb != 'w' {
					pass.Reportf(args[i].Pos(),
						"error flattened with %%%c in fmt.Errorf; use %%w so errors.Is/As see the cause through this %s boundary",
						verb, strings.TrimPrefix(pass.Pkg.Path(), "repro/internal/"))
				}
			}
			return true
		})
	}
	return nil
}

// isPkgFunc reports whether fun resolves to the package-level function
// pkg.name (by import path).
func isPkgFunc(pass *Pass, fun ast.Expr, pkgPath, name string) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// constantString returns the compile-time string value of e, if any.
func constantString(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// formatVerbs extracts the argument-consuming verbs of a printf format in
// order. exotic is true when the format uses features (explicit argument
// indexes, * widths) that break the simple verb↔argument pairing.
func formatVerbs(format string) (verbs []rune, exotic bool) {
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// flags, width, precision
		for i < len(format) {
			c := format[i]
			if c == '*' || c == '[' {
				return nil, true
			}
			if strings.ContainsRune("+-# 0.0123456789", rune(c)) {
				i++
				continue
			}
			break
		}
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		verbs = append(verbs, rune(format[i]))
	}
	return verbs, false
}

// typeName returns t's named-type object, unwrapping pointers, or nil.
func typeName(t types.Type) *types.TypeName {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj()
		default:
			return nil
		}
	}
}
