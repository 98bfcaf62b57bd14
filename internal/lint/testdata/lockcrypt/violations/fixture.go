// Package fixture plants crypto-under-lock violations. Lockcrypt is not
// package-scoped, so the test loads it at a neutral path
// (repro/internal/client/lintfixture).
package fixture

import (
	"math/big"
	"sync"

	"repro/internal/crypto/paillier"
	"repro/internal/enc"
	"repro/internal/packing"
	"repro/internal/value"
)

type cache struct {
	mu  sync.Mutex
	key *paillier.PublicKey
}

// underLock performs the homomorphic fold inside the critical section.
func (c *cache) underLock(a, b *big.Int) *big.Int {
	c.mu.Lock()
	s := c.key.AddCipher(a, b) // want `\(paillier\.PublicKey\)\.AddCipher called while holding c\.mu`
	c.mu.Unlock()
	return s
}

// underDefer: a deferred unlock holds the lock to function end.
func (c *cache) underDefer(cs []*big.Int) *big.Int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.key.ProductCipher(cs) // want `\(paillier\.PublicKey\)\.ProductCipher called while holding c\.mu`
}

// afterUnlock releases first — the pointer-swap pattern the plan cache
// and block cache use. No finding.
func (c *cache) afterUnlock(a, b *big.Int) *big.Int {
	c.mu.Lock()
	k := c.key
	c.mu.Unlock()
	return k.AddCipher(a, b)
}

// spawnedLiteral: a literal defined while the lock is held runs on its
// own schedule, so its body is a separate lock region. No finding.
func (c *cache) spawnedLiteral(a, b *big.Int) func() *big.Int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return func() *big.Int { return c.key.AddCipher(a, b) }
}

// sumUnderLock calls a package-level crypto entry point under a plain
// mutex.
func sumUnderLock(mu *sync.Mutex, s *packing.Store, ids []int) {
	mu.Lock()
	defer mu.Unlock()
	_, _ = packing.HomSum(s, ids) // want `packing\.HomSum called while holding mu`
}

// rwRead holds an RLock across a fold — read locks serialize writers just
// the same.
func rwRead(mu *sync.RWMutex, key *paillier.PublicKey, cs []*big.Int) *big.Int {
	mu.RLock()
	defer mu.RUnlock()
	return key.ProductCipher(cs) // want `\(paillier\.PublicKey\)\.ProductCipher called while holding mu`
}

// resolveUnderLock resolves an item's cipher and decrypts a column with it
// inside the critical section: key derivation plus a cipher call per value.
func resolveUnderLock(mu *sync.Mutex, ks *enc.KeyStore, it *enc.Item, col []value.Value) error {
	mu.Lock()
	defer mu.Unlock()
	c := ks.Cipher(it) // want `\(enc\.KeyStore\)\.Cipher called while holding mu`
	var err error
	for i := range col {
		if col[i], err = c.Decrypt(col[i]); err != nil { // want `\(enc\.Cipher\)\.Decrypt called while holding mu`
			return err
		}
	}
	return nil
}

// resolveThenLock resolves and decrypts first and publishes under the lock.
// No finding.
func resolveThenLock(mu *sync.Mutex, ks *enc.KeyStore, it *enc.Item, cv value.Value, dst *value.Value) error {
	c := ks.Cipher(it)
	pv, err := c.Decrypt(cv)
	if err != nil {
		return err
	}
	mu.Lock()
	*dst = pv
	mu.Unlock()
	return nil
}
