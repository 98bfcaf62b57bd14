// Package fixture reaches for the key store's per-item cipher resolver from
// the server side. The test loads it AS repro/internal/server/lintfixture:
// the resolver hangs off the trusted-only enc.KeyStore and hands out
// enc.Cipher values that hold derived subkeys, so both must be reported.
package fixture

import (
	"repro/internal/enc"
	"repro/internal/value"
)

// decryptColumn is the client's batch decode, misplaced on the server.
func decryptColumn(ks *enc.KeyStore, it *enc.Item, col []value.Value) error { // want `references trusted-only symbol repro/internal/enc.KeyStore` `holds a value of type \*repro/internal/enc.KeyStore`
	c := ks.Cipher(it) // want `holds a value of type repro/internal/enc.Cipher`
	var err error
	for i := range col {
		if col[i], err = c.Decrypt(col[i]); err != nil {
			return err
		}
	}
	return nil
}

// withCipher takes an already-resolved cipher: no key store in sight, the
// derived key arrives inside the value.
func withCipher(c *enc.Cipher, cv value.Value) (value.Value, error) { // want `references trusted-only symbol repro/internal/enc.Cipher` `holds a value of type \*repro/internal/enc.Cipher`
	return c.Decrypt(cv)
}
