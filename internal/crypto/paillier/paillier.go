// Package paillier implements the Paillier additively homomorphic
// cryptosystem (Paillier, EUROCRYPT '99) used by MONOMI to compute SUM and
// AVG on the untrusted server: E(a) * E(b) mod n² = E(a+b).
//
// Plaintexts are elements of Z_n where n is the public modulus (1,024 bits
// in the paper's configuration, giving 2,048-bit ciphertexts). MONOMI packs
// multiple column values and multiple rows into a single plaintext (§5.2,
// §5.3); that packing lives in internal/packing — this package provides the
// raw cryptosystem.
package paillier

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
)

// PublicKey is the public half of a Paillier keypair: (N, G) plus the
// cached N². It supports every operation the untrusted server performs —
// the homomorphic fold (ProductCipher/AddCipher), constant
// multiplication, and ciphertext (de)serialization — and nothing that
// produces plaintext. Per MONOMI's trust model (§3), server-side state
// (packing.Store, the engine's crypto UDFs) holds a *PublicKey only; the
// trustflow analyzer (internal/lint) enforces that the full Key never
// crosses into an untrusted package.
type PublicKey struct {
	N  *big.Int // modulus (public)
	N2 *big.Int // N² (public, cached)
	G  *big.Int // generator, N+1 (public)
}

// Key is a Paillier keypair: the embedded public half plus the private
// decryption exponents (Lambda, Mu). Only the trusted client holds one.
type Key struct {
	PublicKey
	Lambda  *big.Int // lcm(p-1, q-1) (private)
	Mu      *big.Int // (L(G^Lambda mod N²))⁻¹ mod N (private)
	randSrc io.Reader
}

// Public returns the shareable public half of the keypair.
func (k *Key) Public() *PublicKey { return &k.PublicKey }

// GenerateKey creates a keypair with an n-bit modulus. The paper uses 1,024
// bits; tests use smaller moduli for speed.
func GenerateKey(bits int) (*Key, error) {
	return generateKey(rand.Reader, bits)
}

func generateKey(src io.Reader, bits int) (*Key, error) {
	if bits < 64 {
		return nil, fmt.Errorf("paillier: modulus must be at least 64 bits")
	}
	for {
		p, err := rand.Prime(src, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := rand.Prime(src, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		p1 := new(big.Int).Sub(p, big.NewInt(1))
		q1 := new(big.Int).Sub(q, big.NewInt(1))
		gcd := new(big.Int).GCD(nil, nil, p1, q1)
		lambda := new(big.Int).Div(new(big.Int).Mul(p1, q1), gcd)
		n2 := new(big.Int).Mul(n, n)
		g := new(big.Int).Add(n, big.NewInt(1))
		// mu = (L(g^lambda mod n²))⁻¹ mod n
		u := new(big.Int).Exp(g, lambda, n2)
		l := lFunc(u, n)
		mu := new(big.Int).ModInverse(l, n)
		if mu == nil {
			continue
		}
		return &Key{
			PublicKey: PublicKey{N: n, N2: n2, G: g},
			Lambda:    lambda, Mu: mu, randSrc: src,
		}, nil
	}
}

// lFunc is L(u) = (u - 1) / n.
func lFunc(u, n *big.Int) *big.Int {
	return new(big.Int).Div(new(big.Int).Sub(u, big.NewInt(1)), n)
}

// PlaintextBits returns the usable plaintext width in bits (slightly under
// the modulus width to avoid wraparound).
func (k *PublicKey) PlaintextBits() int { return k.N.BitLen() - 2 }

// Encrypt encrypts m ∈ [0, N).
func (k *Key) Encrypt(m *big.Int) (*big.Int, error) {
	if m.Sign() < 0 || m.Cmp(k.N) >= 0 {
		return nil, fmt.Errorf("paillier: plaintext out of range [0, N)")
	}
	rn, err := k.blindingFactor()
	if err != nil {
		return nil, err
	}
	// c = g^m * r^N mod N². With g = N+1, g^m = 1 + m*N (mod N²).
	gm := new(big.Int).Mul(m, k.N)
	gm.Add(gm, big.NewInt(1))
	gm.Mod(gm, k.N2)
	c := new(big.Int).Mul(gm, rn)
	c.Mod(c, k.N2)
	return c, nil
}

// blindingFactor computes r^N mod N² for a fresh uniform r ∈ Z*_N.
func (k *Key) blindingFactor() (*big.Int, error) {
	var r *big.Int
	for {
		var err error
		r, err = rand.Int(k.randSrc, k.N)
		if err != nil {
			return nil, err
		}
		if r.Sign() > 0 && new(big.Int).GCD(nil, nil, r, k.N).Cmp(big.NewInt(1)) == 0 {
			break
		}
	}
	return new(big.Int).Exp(r, k.N, k.N2), nil
}

// EncryptInt64 encrypts a non-negative small integer.
func (k *Key) EncryptInt64(m int64) (*big.Int, error) {
	if m < 0 {
		return nil, fmt.Errorf("paillier: negative plaintext %d", m)
	}
	return k.Encrypt(big.NewInt(m))
}

// Decrypt recovers the plaintext of c.
func (k *Key) Decrypt(c *big.Int) (*big.Int, error) {
	if c.Sign() <= 0 || c.Cmp(k.N2) >= 0 {
		return nil, fmt.Errorf("paillier: ciphertext out of range")
	}
	u := new(big.Int).Exp(c, k.Lambda, k.N2)
	m := lFunc(u, k.N)
	m.Mul(m, k.Mu)
	m.Mod(m, k.N)
	return m, nil
}

// AddCipher homomorphically adds two ciphertexts: E(a+b) = E(a)·E(b) mod N².
func (k *PublicKey) AddCipher(a, b *big.Int) *big.Int {
	c := new(big.Int).Mul(a, b)
	return c.Mod(c, k.N2)
}

// ProductCipher homomorphically adds a batch of ciphertexts:
// E(Σaᵢ) = Πᵢ E(aᵢ) mod N². It reuses one accumulator and one scratch
// big.Int across the whole batch, unlike repeated AddCipher calls which
// allocate per multiplication. Returns nil for an empty batch.
func (k *PublicKey) ProductCipher(cs []*big.Int) *big.Int {
	if len(cs) == 0 {
		return nil
	}
	acc := new(big.Int).Set(cs[0])
	tmp := new(big.Int)
	for _, c := range cs[1:] {
		tmp.Mul(acc, c)
		acc.Mod(tmp, k.N2)
	}
	return acc
}

// MulConst homomorphically multiplies a ciphertext's plaintext by a
// constant: E(s·a) = E(a)^s mod N².
func (k *PublicKey) MulConst(a *big.Int, s *big.Int) *big.Int {
	return new(big.Int).Exp(a, s, k.N2)
}

// EncryptZero returns a fresh encryption of zero (the multiplicative
// identity for homomorphic accumulation).
func (k *Key) EncryptZero() (*big.Int, error) { return k.Encrypt(big.NewInt(0)) }

// CiphertextSize returns the ciphertext size in bytes (2× modulus).
func (k *PublicKey) CiphertextSize() int { return (k.N2.BitLen() + 7) / 8 }

// CiphertextBytes serializes a ciphertext as fixed-width big-endian bytes.
func (k *PublicKey) CiphertextBytes(c *big.Int) []byte {
	out := make([]byte, k.CiphertextSize())
	c.FillBytes(out)
	return out
}

// CiphertextFromBytes parses a serialized ciphertext.
func (k *PublicKey) CiphertextFromBytes(b []byte) *big.Int { return new(big.Int).SetBytes(b) }
