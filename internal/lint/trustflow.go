package lint

import (
	"go/types"
	"strconv"
)

// Trustflow enforces MONOMI's trust boundary (§3 of the paper): secret
// key material and the helpers that produce plaintext from ciphertext
// exist only on the trusted client side of the split. The untrusted
// server-side packages — engine, storage, transport, wire, netsim,
// server — see ciphertext alone, so none of them may:
//
//  1. import the keyed scheme packages (crypto/det, crypto/ope,
//     crypto/rnd, crypto/prf) — holding a scheme object means holding a
//     derived key;
//  2. reference a trusted-only symbol (enc.KeyStore, enc.Cipher, enc.NewKeyStore,
//     enc.EncryptDatabase and EncryptDatabaseOn — the only two loaders —
//     paillier.Key, paillier.GenerateKey,
//     packing.ClientSums/BuildStore/PlainCache,
//     search's keyed Scheme — search.Match on public trapdoors is fine);
//  3. declare any variable, field, parameter or result whose type
//     transitively contains a trusted-only type — the rule that catches
//     a *paillier.Key smuggled to the server inside a struct such as the
//     pre-PR-10 packing.Store, which embedded the full keypair in the
//     server-resident ciphertext file.
//
// The check is package-level and type-directed rather than a full
// interprocedural taint analysis: inside the module every secret is a
// distinguished named type, so "no untrusted package can even name or
// hold the secret" implies "no flow". Legitimate exceptions carry a
// //monomi:trusted annotation with a justification.
var Trustflow = &Analyzer{
	Name: "trustflow",
	Doc:  "secrets and plaintext-producing helpers must not reach untrusted (server-side) packages",
	Run:  runTrustflow,
}

// untrustedPackages are the server-side package subtrees. A package is
// untrusted if its import path is one of these or below one of these.
var untrustedPackages = []string{
	"repro/internal/engine",
	"repro/internal/storage",
	"repro/internal/transport",
	"repro/internal/wire",
	"repro/internal/netsim",
	"repro/internal/server",
}

// bannedImports may not be imported by untrusted packages at all: every
// exported entry point of these packages is keyed.
var bannedImports = []string{
	"repro/internal/crypto/det",
	"repro/internal/crypto/ope",
	"repro/internal/crypto/rnd",
	"repro/internal/crypto/prf",
}

// trustedOnly maps package path → exported names that only the trusted
// client may reference. Types listed here also poison any type that
// transitively contains them (rule 3 above).
var trustedOnly = map[string]map[string]bool{
	"repro/internal/enc": {
		"KeyStore":          true,
		"Cipher":            true,
		"NewKeyStore":       true,
		"EncryptDatabase":   true,
		"EncryptDatabaseOn": true,
	},
	"repro/internal/crypto/paillier": {
		"Key":         true,
		"GenerateKey": true,
	},
	"repro/internal/crypto/det": {
		"Scheme": true, "New": true, "MustNew": true,
	},
	"repro/internal/crypto/ope": {
		"Scheme": true, "New": true, "MustNew": true,
	},
	"repro/internal/crypto/rnd": {
		"Scheme": true, "New": true, "MustNew": true,
	},
	"repro/internal/crypto/search": {
		"Scheme": true, "New": true, "MustNew": true,
	},
	"repro/internal/crypto/prf": {
		"DeriveKey": true,
	},
	"repro/internal/packing": {
		"ClientSums":    true,
		"BuildStore":    true,
		"PlainCache":    true,
		"NewPlainCache": true,
	},
}

// IsUntrustedPackage reports whether an import path lies in the untrusted
// (server-side) subtree. Exported for the multichecker's diagnostics.
func IsUntrustedPackage(path string) bool {
	for _, u := range untrustedPackages {
		if pathHasPrefix(path, u) {
			return true
		}
	}
	return false
}

// isTrustedOnlyObject reports whether obj is in the trusted-only set.
func isTrustedOnlyObject(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	names := trustedOnly[obj.Pkg().Path()]
	return names != nil && names[obj.Name()] && obj.Parent() == obj.Pkg().Scope()
}

func runTrustflow(pass *Pass) error {
	if !IsUntrustedPackage(pass.Pkg.Path()) {
		return nil
	}

	// Rule 1: banned imports.
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			for _, banned := range bannedImports {
				if pathHasPrefix(path, banned) {
					pass.Reportf(imp.Pos(),
						"untrusted package %s imports keyed crypto package %s; scheme objects hold derived keys and must stay on the trusted client (MONOMI §3)",
						pass.Pkg.Path(), path)
				}
			}
		}
	}

	// Rule 2: direct references to trusted-only symbols.
	for id, obj := range pass.TypesInfo.Uses {
		if isTrustedOnlyObject(obj) {
			pass.Reportf(id.Pos(),
				"untrusted package %s references trusted-only symbol %s.%s (MONOMI §3: only the client holds keys and plaintext)",
				pass.Pkg.Path(), obj.Pkg().Path(), obj.Name())
		}
	}

	// Rule 3: declared vars/fields/params/results whose type transitively
	// contains a trusted-only type.
	seen := map[*types.Named]containment{}
	for id, obj := range pass.TypesInfo.Defs {
		v, ok := obj.(*types.Var)
		if !ok {
			continue
		}
		if leak := containsTrustedType(v.Type(), seen, nil); leak != "" {
			pass.Reportf(id.Pos(),
				"untrusted package %s holds a value of type %s, which transitively contains trusted-only type %s (MONOMI §3: the server must never hold key material)",
				pass.Pkg.Path(), types.TypeString(v.Type(), nil), leak)
		}
	}
	return nil
}

// containment memoizes containsTrustedType results per named type.
type containment struct {
	done bool
	leak string
}

// containsTrustedType walks a type's structure and returns the fully
// qualified name of the first trusted-only named type it contains, or "".
// Function and interface types do not count as containment (a function
// value cannot be opened by the server; an interface hides its dynamic
// type from the static boundary and is the decryptor-callback seam).
func containsTrustedType(t types.Type, memo map[*types.Named]containment, stack []*types.Named) string {
	switch t := t.(type) {
	case *types.Named:
		obj := t.Obj()
		if isTrustedOnlyObject(obj) {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		if c, ok := memo[t]; ok {
			if c.done {
				return c.leak
			}
			return "" // cycle in progress: assume clean, outer frame decides
		}
		memo[t] = containment{}
		leak := containsTrustedType(t.Underlying(), memo, append(stack, t))
		memo[t] = containment{done: true, leak: leak}
		return leak
	case *types.Pointer:
		return containsTrustedType(t.Elem(), memo, stack)
	case *types.Slice:
		return containsTrustedType(t.Elem(), memo, stack)
	case *types.Array:
		return containsTrustedType(t.Elem(), memo, stack)
	case *types.Map:
		if leak := containsTrustedType(t.Key(), memo, stack); leak != "" {
			return leak
		}
		return containsTrustedType(t.Elem(), memo, stack)
	case *types.Chan:
		return containsTrustedType(t.Elem(), memo, stack)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if leak := containsTrustedType(t.Field(i).Type(), memo, stack); leak != "" {
				return leak
			}
		}
	}
	return ""
}
