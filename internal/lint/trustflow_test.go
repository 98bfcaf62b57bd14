package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// TestTrustflowViolations loads a fixture full of planted trust-boundary
// violations as an untrusted package path and checks every finding lands
// on the expected line (the fixture's want comments) — banned imports,
// direct trusted-only references, and transitive type containment.
func TestTrustflowViolations(t *testing.T) {
	diags := linttest.Run(t, "testdata/trustflow/violations", "repro/internal/engine/lintfixture", lint.Trustflow)
	if len(diags) != 10 {
		t.Errorf("got %d diagnostics, fixture plants 10", len(diags))
	}
	linttest.MustFindAt(t, diags, "trustflow", "fixture.go", 8)  // banned prf import
	linttest.MustFindAt(t, diags, "trustflow", "fixture.go", 22) // transitive containment via holder.inner
}

// TestTrustflowScopedToUntrusted loads the same violating fixture at a
// trusted (client-side) import path: the analyzer must stay silent —
// holding keys is the trusted client's job.
func TestTrustflowScopedToUntrusted(t *testing.T) {
	pkg := linttest.Load(t, "testdata/trustflow/violations", "repro/internal/client/lintfixture")
	diags, err := lint.Analyze(pkg, []*lint.Analyzer{lint.Trustflow})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic on trusted path:\n  %s", d)
	}
}

// TestTrustflowRejectsCipherResolverOnServer: the per-item resolver
// (enc.KeyStore.Cipher) and the enc.Cipher it returns — the entry points of
// bulk encryption and the client's batch decoder — stay out of reach of
// internal/server.
func TestTrustflowRejectsCipherResolverOnServer(t *testing.T) {
	linttest.Run(t, "testdata/trustflow/resolver", "repro/internal/server/lintfixture", lint.Trustflow)
}
