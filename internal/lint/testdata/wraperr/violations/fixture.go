// Package fixture plants error-flattening violations. The tests load it
// inside the wraperr scope (storage, client) and outside it (engine).
package fixture

import (
	"errors"
	"fmt"
)

var errSentinel = errors.New("sentinel")

// flattenV loses the chain: %v renders the cause as text, so errors.Is
// can no longer see it.
func flattenV(err error) error {
	return fmt.Errorf("read segment 7: %v", err) // want `error flattened with %v in fmt.Errorf; use %w`
}

// flattenS is equally broken.
func flattenS(err error) error {
	return fmt.Errorf("open store: %s", err) // want `error flattened with %s in fmt.Errorf`
}

// wrapped is the required form: no finding.
func wrapped(err error) error {
	return fmt.Errorf("read segment 7: %w", err)
}

// nonError arguments may use %v freely.
func nonError(n int) error {
	return fmt.Errorf("segment %d out of range: limit %v", n, 64)
}

// mixed pairs verbs to arguments positionally: only the error arg trips.
func mixed(n int, err error) error {
	return fmt.Errorf("segment %d: %v", n, err) // want `error flattened with %v`
}

// segErr is a custom error type; anything satisfying error must wrap.
type segErr struct{ id int }

func (e *segErr) Error() string { return fmt.Sprintf("segment %d", e.id) }

func custom(e *segErr) error {
	return fmt.Errorf("checksum: %v", e) // want `error flattened with %v`
}

// sentinelUse keeps errSentinel referenced and shows the clean pattern
// the storage layer uses for its own typed sentinels.
func sentinelUse() error {
	return fmt.Errorf("shutting down: %w", errSentinel)
}
