package lint

import (
	"go/ast"
)

// Lockcrypt keeps big-int cryptography out of critical sections. A single
// Paillier operation is a multi-hundred-microsecond modular
// exponentiation or multiplication chain; performing one while holding a
// mutex turns that mutex into a global crypto serializer. The plan cache
// (PR 7) and the disk backend's block cache (PR 9) sit on the high-QPS
// hot path precisely because their critical sections are pointer swaps —
// Template.Rebind re-encrypts parameters only after the cache lock is
// released, and the singleflight fill plans outside the map lock.
//
// The analyzer walks every function in the module: between a Lock/RLock
// on any sync.Mutex/RWMutex and the matching Unlock (a deferred unlock
// holds to function end), a call to a Paillier crypto entry point —
// paillier Encrypt/Decrypt/ProductCipher/AddCipher/MulConst and friends,
// enc.KeyStore.EncryptValue/DecryptValue/Cipher, enc.Cipher.Encrypt/Decrypt, packing
// HomSum/HomSumParallel/BuildStore/ClientSums — is reported. The walk is
// lexical (statements in source order, branch bodies included), which
// matches the Lock/defer-Unlock discipline this codebase uses throughout.
var Lockcrypt = &Analyzer{
	Name: "lockcrypt",
	Doc:  "no Paillier encryption/decryption or homomorphic fold while holding a mutex",
	Run:  runLockcrypt,
}

// cryptoMethods maps receiver-type package path → type name → methods
// that perform big-int crypto.
var cryptoMethods = map[string]map[string]map[string]bool{
	"repro/internal/crypto/paillier": {
		"Key": {
			"Encrypt": true, "EncryptInt64": true, "EncryptZero": true,
			"Decrypt": true, "AddCipher": true, "ProductCipher": true,
			"MulConst": true,
		},
		// The public half carries the homomorphic operations after the
		// PR-10 PublicKey split; same costs, same rule.
		"PublicKey": {
			"Encrypt": true, "EncryptInt64": true, "EncryptZero": true,
			"AddCipher": true, "ProductCipher": true, "MulConst": true,
		},
	},
	"repro/internal/enc": {
		"KeyStore": {"EncryptValue": true, "DecryptValue": true, "Cipher": true},
		// The resolved per-item form bulk encryption and the client's batch
		// decoder loop over: whole columns of work per call site.
		"Cipher": {"Encrypt": true, "Decrypt": true},
	},
}

// cryptoFuncs maps package path → package-level functions that perform
// big-int crypto.
var cryptoFuncs = map[string]map[string]bool{
	"repro/internal/packing": {
		"HomSum": true, "HomSumParallel": true,
		"BuildStore": true, "ClientSums": true,
	},
}

func runLockcrypt(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkLockRegions(pass, fn.Body)
		}
	}
	return nil
}

// lockEvent is one Lock/Unlock/crypto occurrence in source order.
type lockEvent struct {
	pos      int // byte offset, for ordering
	node     ast.Node
	mutex    string // rendered mutex expression, "" for crypto calls
	kind     int    // 0 lock, 1 unlock, 2 deferred unlock, 3 crypto call
	callName string // crypto callee, for the diagnostic
}

// checkLockRegions scans one function body. Function literals declared
// inside run on their own goroutine or at least on their own call
// schedule, so each literal body is scanned as its own region (a lock
// held at the point a literal is *defined* does not mean it is held when
// the literal runs).
func checkLockRegions(pass *Pass, body *ast.BlockStmt) {
	var events []lockEvent
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkLockRegions(pass, n.Body)
			return false
		case *ast.DeferStmt:
			if mtx, ok := mutexMethodCall(pass, n.Call, "Unlock", "RUnlock"); ok {
				events = append(events, lockEvent{pos: int(n.Pos()), node: n, mutex: mtx, kind: 2})
				// Don't descend: the call below would otherwise be recorded
				// again as an immediate unlock.
				return false
			}
			return true
		case *ast.CallExpr:
			if mtx, ok := mutexMethodCall(pass, n, "Lock", "RLock"); ok {
				events = append(events, lockEvent{pos: int(n.Pos()), node: n, mutex: mtx, kind: 0})
				return true
			}
			if mtx, ok := mutexMethodCall(pass, n, "Unlock", "RUnlock"); ok {
				events = append(events, lockEvent{pos: int(n.Pos()), node: n, mutex: mtx, kind: 1})
				return true
			}
			if name, ok := cryptoCall(pass, n); ok {
				events = append(events, lockEvent{pos: int(n.Pos()), node: n, callName: name, kind: 3})
			}
		}
		return true
	})
	// ast.Inspect visits in source order within a body; sort defensively
	// anyway so region tracking never depends on traversal details.
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].pos < events[j-1].pos; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
	held := map[string]int{}
	for _, ev := range events {
		switch ev.kind {
		case 0:
			held[ev.mutex]++
		case 1:
			if held[ev.mutex] > 0 {
				held[ev.mutex]--
			}
		case 2:
			// deferred unlock: the lock stays held for the remainder of
			// the scan, which is exactly what the region model wants.
		case 3:
			for mtx, n := range held {
				if n > 0 {
					pass.Reportf(ev.node.Pos(),
						"%s called while holding %s; Paillier work under a mutex serializes the hot path — release the lock first (plan/block caches must stay pointer-swap critical sections)",
						ev.callName, mtx)
					break
				}
			}
		}
	}
}

// mutexMethodCall reports whether call is sel.<name1|name2>() on a
// sync.Mutex or sync.RWMutex (directly or promoted through an embedded
// field), returning a rendered name for the mutex expression.
func mutexMethodCall(pass *Pass, call *ast.CallExpr, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
		}
	}
	if !match {
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return "", false
	}
	tn := typeName(tv.Type)
	if tn == nil || tn.Pkg() == nil || tn.Pkg().Path() != "sync" {
		return "", false
	}
	if tn.Name() != "Mutex" && tn.Name() != "RWMutex" {
		return "", false
	}
	return renderExpr(sel.X), true
}

// cryptoCall reports whether call invokes one of the monitored crypto
// entry points, returning a printable callee name.
func cryptoCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	// Package-level function?
	if fns := cryptoFuncs[obj.Pkg().Path()]; fns != nil && fns[obj.Name()] && obj.Parent() == obj.Pkg().Scope() {
		return obj.Pkg().Name() + "." + obj.Name(), true
	}
	// Method on a monitored type?
	byType := cryptoMethods[obj.Pkg().Path()]
	if byType == nil {
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return "", false
	}
	tn := typeName(tv.Type)
	if tn == nil {
		return "", false
	}
	if methods := byType[tn.Name()]; methods != nil && methods[obj.Name()] {
		return "(" + tn.Pkg().Name() + "." + tn.Name() + ")." + obj.Name(), true
	}
	return "", false
}

// renderExpr renders a selector/ident chain for diagnostics ("pc.mu");
// non-chain expressions render as "<mutex>".
func renderExpr(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return renderExpr(t.X) + "." + t.Sel.Name
	case *ast.ParenExpr:
		return renderExpr(t.X)
	case *ast.StarExpr:
		return renderExpr(t.X)
	}
	return "<mutex>"
}
