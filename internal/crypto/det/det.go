// Package det implements deterministic encryption, the scheme that lets the
// untrusted server evaluate equality (a = const, IN, GROUP BY, equi-join)
// over ciphertexts. Equal plaintexts produce equal ciphertexts; the only
// leakage is duplicates (Table 1 of the paper).
//
// Two constructions are used, both length-preserving as in the paper's
// space-efficient encryption (§5.2):
//
//   - Integers (incl. dates) use an FFX-style balanced Feistel network over
//     the 64-bit domain keyed by AES, so an 8-byte plaintext maps to an
//     8-byte ciphertext (vs. a 16-byte AES block).
//   - Byte strings use a CMC-style wide-block Feistel: 4 rounds of
//     stream-XOR over the two halves, giving a length-preserving strong
//     pseudorandom permutation over {0,1}^8n for n ≥ 2; 1-byte inputs use a
//     keyed byte permutation; empty input maps to itself.
//
// The byte permutation is a property of the key, so a Scheme builds it and
// its inverse on the first one-byte value (255 PRF calls) and keeps them:
// flag columns such as l_returnflag are one byte in every row.
package det

import (
	"sync"

	"repro/internal/crypto/prf"
)

// Scheme is a deterministic encryption key for one column. It is shared by
// pointer: client decode workers use one Scheme from several goroutines.
type Scheme struct {
	f *prf.PRF

	permOnce  sync.Once
	perm, inv [256]byte // the one-byte permutation; read through bytePerm
}

// bytePerm returns the keyed one-byte permutation and its inverse, built once.
func (s *Scheme) bytePerm() (perm, inv *[256]byte) {
	s.permOnce.Do(func() { s.perm, s.inv = s.f.Perm256(0x5eed) })
	return &s.perm, &s.inv
}

// feistelRounds for the integer FFX network. 10 rounds of a balanced
// Feistel with a PRF round function is the FFX recommendation.
const feistelRounds = 10

// wideRounds for the byte-string wide-block cipher (CMC uses a 2-pass
// structure; an unbalanced 4-round Feistel gives the same SPRP interface).
const wideRounds = 4

// New creates a DET scheme from a 16-byte key.
func New(key []byte) (*Scheme, error) {
	f, err := prf.New(key)
	if err != nil {
		return nil, err
	}
	return &Scheme{f: f}, nil
}

// MustNew is New for keys known to be valid.
func MustNew(key []byte) *Scheme {
	s, err := New(key)
	if err != nil {
		panic(err)
	}
	return s
}

// EncryptUint64 applies the FFX Feistel network to a 64-bit value.
// Signed integers are passed through their two's-complement bits.
func (s *Scheme) EncryptUint64(x uint64) uint64 {
	var sc prf.Scratch
	return s.EncryptUint64In(&sc, x)
}

// EncryptUint64In is EncryptUint64 with the round function evaluated in the
// caller's scratch block: a loop over a column allocates nothing.
func (s *Scheme) EncryptUint64In(sc *prf.Scratch, x uint64) uint64 {
	l := uint32(x >> 32)
	r := uint32(x)
	for i := 0; i < feistelRounds; i++ {
		l, r = r, l^uint32(s.f.Eval64In(sc, uint32(i), uint64(r)))
	}
	return uint64(l)<<32 | uint64(r)
}

// DecryptUint64 inverts EncryptUint64.
func (s *Scheme) DecryptUint64(x uint64) uint64 {
	var sc prf.Scratch
	return s.DecryptUint64In(&sc, x)
}

// DecryptUint64In inverts EncryptUint64In.
func (s *Scheme) DecryptUint64In(sc *prf.Scratch, x uint64) uint64 {
	l := uint32(x >> 32)
	r := uint32(x)
	for i := feistelRounds - 1; i >= 0; i-- {
		l, r = r^uint32(s.f.Eval64In(sc, uint32(i), uint64(l))), l
	}
	return uint64(l)<<32 | uint64(r)
}

// EncryptInt64 encrypts a signed integer (dates, scaled decimals, keys).
func (s *Scheme) EncryptInt64(x int64) uint64 { return s.EncryptUint64(uint64(x)) }

// DecryptInt64 inverts EncryptInt64.
func (s *Scheme) DecryptInt64(c uint64) int64 { return int64(s.DecryptUint64(c)) }

// EncryptBytes applies the length-preserving wide-block cipher to a byte
// string. The result has exactly len(pt) bytes.
func (s *Scheme) EncryptBytes(pt []byte) []byte {
	n := len(pt)
	out := make([]byte, n)
	copy(out, pt)
	switch {
	case n == 0:
		return out
	case n == 1:
		perm, _ := s.bytePerm()
		out[0] = perm[out[0]]
		return out
	}
	half := n / 2
	l, r := out[:half], out[half:]
	tmp := make([]byte, n)
	for i := 0; i < wideRounds; i++ {
		// l ^= F_i(r); swap
		ks := tmp[:len(l)]
		s.f.Stream(uint32(i), r, ks)
		for j := range l {
			l[j] ^= ks[j]
		}
		if i < wideRounds-1 {
			l, r = r, l
		}
	}
	return out
}

// DecryptBytes inverts EncryptBytes.
func (s *Scheme) DecryptBytes(ct []byte) []byte {
	n := len(ct)
	out := make([]byte, n)
	copy(out, ct)
	switch {
	case n == 0:
		return out
	case n == 1:
		_, inv := s.bytePerm()
		out[0] = inv[out[0]]
		return out
	}
	half := n / 2
	l, r := out[:half], out[half:]
	// Recreate the final (l, r) views after the forward swaps.
	views := make([][2][]byte, wideRounds)
	cl, cr := l, r
	for i := 0; i < wideRounds; i++ {
		views[i] = [2][]byte{cl, cr}
		if i < wideRounds-1 {
			cl, cr = cr, cl
		}
	}
	tmp := make([]byte, n)
	for i := wideRounds - 1; i >= 0; i-- {
		vl, vr := views[i][0], views[i][1]
		ks := tmp[:len(vl)]
		s.f.Stream(uint32(i), vr, ks)
		for j := range vl {
			vl[j] ^= ks[j]
		}
	}
	return out
}

// EncryptString is EncryptBytes over a string's bytes.
func (s *Scheme) EncryptString(v string) []byte { return s.EncryptBytes([]byte(v)) }

// DecryptString inverts EncryptString.
func (s *Scheme) DecryptString(ct []byte) string { return string(s.DecryptBytes(ct)) }

// CiphertextSize returns the DET ciphertext size for a plaintext length:
// length-preserving, the point of §5.2.
func CiphertextSize(ptLen int) int { return ptLen }
