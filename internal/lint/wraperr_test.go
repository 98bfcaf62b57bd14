package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// TestWraperrViolations checks that %v/%s flattening of error-typed
// fmt.Errorf arguments is reported inside the storage, client and wire subtrees,
// while %w, non-error arguments, and positional mixing stay clean.
func TestWraperrViolations(t *testing.T) {
	for _, path := range []string{"repro/internal/storage/lintfixture", "repro/internal/client/lintfixture", "repro/internal/wire/lintfixture"} {
		diags := linttest.Run(t, "testdata/wraperr/violations", path, lint.Wraperr)
		if len(diags) != 4 {
			t.Errorf("%s: got %d diagnostics, fixture plants 4", path, len(diags))
		}
	}
}

// TestWraperrScoped loads the same fixture outside the wraperr subtrees:
// engine-side formatting is free to flatten.
func TestWraperrScoped(t *testing.T) {
	pkg := linttest.Load(t, "testdata/wraperr/violations", "repro/internal/engine/lintfixture")
	diags, err := lint.Analyze(pkg, []*lint.Analyzer{lint.Wraperr})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic outside wraperr scope:\n  %s", d)
	}
}
