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
	var sc prf.Scratch
	return s.EncryptBytesIn(&sc, pt)
}

// EncryptBytesIn is EncryptBytes with the rounds' keystreams generated in
// the caller's scratch block: it allocates only the ciphertext.
func (s *Scheme) EncryptBytesIn(sc *prf.Scratch, pt []byte) []byte {
	out := make([]byte, len(pt))
	copy(out, pt)
	s.wide(sc, out, false)
	return out
}

// DecryptBytes inverts EncryptBytes.
func (s *Scheme) DecryptBytes(ct []byte) []byte {
	var sc prf.Scratch
	return s.DecryptBytesIn(&sc, ct)
}

// DecryptBytesIn inverts EncryptBytesIn: it allocates only the plaintext.
func (s *Scheme) DecryptBytesIn(sc *prf.Scratch, ct []byte) []byte {
	out := make([]byte, len(ct))
	copy(out, ct)
	s.wide(sc, out, true)
	return out
}

// wide runs the wide-block cipher over b in place, forward or inverted. A
// round XORs the keystream of one half into the other and the halves swap
// between rounds, so round i's target is the left half when i is even and
// the right half when i is odd; the inverse runs the rounds backwards.
func (s *Scheme) wide(sc *prf.Scratch, b []byte, inverse bool) {
	switch n := len(b); {
	case n == 0:
		return
	case n == 1:
		perm, inv := s.bytePerm()
		if inverse {
			perm = inv
		}
		b[0] = perm[b[0]]
		return
	}
	l, r := b[:len(b)/2], b[len(b)/2:]
	for k := 0; k < wideRounds; k++ {
		i := k
		if inverse {
			i = wideRounds - 1 - k
		}
		dst, seed := l, r
		if i%2 == 1 {
			dst, seed = r, l
		}
		// dst ^= F_i(seed): the halves have one length but for one byte, and
		// the keystream runs over the target's length.
		s.f.XORStreamIn(sc, uint32(i), seed, dst)
	}
}

// EncryptString is EncryptBytes over a string's bytes.
func (s *Scheme) EncryptString(v string) []byte { return s.EncryptBytes([]byte(v)) }

// DecryptString inverts EncryptString.
func (s *Scheme) DecryptString(ct []byte) string {
	var sc prf.Scratch
	return s.DecryptStringIn(&sc, ct)
}

// DecryptStringIn is DecryptString with DecryptBytesIn's scratch block. A
// plaintext of up to 64 bytes is decrypted on the stack, so the string is
// its one allocation.
func (s *Scheme) DecryptStringIn(sc *prf.Scratch, ct []byte) string {
	var buf [64]byte
	if len(ct) > len(buf) {
		return string(s.DecryptBytesIn(sc, ct))
	}
	b := buf[:len(ct)]
	copy(b, ct)
	s.wide(sc, b, true)
	return string(b)
}

// CiphertextSize returns the DET ciphertext size for a plaintext length:
// length-preserving, the point of §5.2.
func CiphertextSize(ptLen int) int { return ptLen }
