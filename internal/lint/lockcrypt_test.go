package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// TestLockcryptViolations checks that Paillier operations, packing entry
// points and the key store's cipher resolver and its Encrypt/Decrypt invoked
// while a sync.Mutex/RWMutex is held — including under a deferred unlock —
// are reported, while unlock-first code and function literals defined under
// the lock stay clean.
func TestLockcryptViolations(t *testing.T) {
	diags := linttest.Run(t, "testdata/lockcrypt/violations", "repro/internal/client/lintfixture", lint.Lockcrypt)
	if len(diags) != 6 {
		t.Errorf("got %d diagnostics, fixture plants 6", len(diags))
	}
}
