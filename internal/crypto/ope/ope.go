// Package ope implements order-preserving encryption: x < y implies
// Enc(x) < Enc(y) bytewise, which lets the untrusted server evaluate range
// predicates, ORDER BY, and MIN/MAX over ciphertexts. Per Table 1 of the
// paper this is MONOMI's weakest scheme — it reveals order and (like the
// Boldyreva scheme the paper uses) partial plaintext information.
//
// The construction is the keyed lazy-sampled random monotone function:
// encryption walks the plaintext's bits from most significant to least,
// splitting the ciphertext interval at a pseudorandom point each step. The
// split point is a PRF of the bit path, so the mapping is deterministic for
// a fixed key, and it is confined to the middle half of the interval so the
// interval provably never collapses: each side keeps ≥ gap/4, and with a
// 126-bit ciphertext space and 48 plaintext bits the final gap is ≥ 2^30.
//
// The interval's two ends are 127-bit numbers held in two machine words each
// (u128), so a walk is 48 AES calls and a few dozen adds and shifts: bulk
// load encrypts a value per row per OPE column, and nothing but the AES
// calls should cost anything.
//
// A ciphertext is the low end of the interval the walk finishes on, so the
// image of Encrypt is sparse in the 16-byte space (2^48 points of 2^126) and
// Decrypt can tell: replaying the walk on 16 arbitrary bytes ends on an
// interval whose low end is those bytes only when they are a ciphertext.
// Anything else is ErrNotCiphertext, never a plausible plaintext.
//
// Domain: signed plaintexts in [-2^47, 2^47) map to 16-byte big-endian
// ciphertexts whose lexicographic byte order equals the plaintext order.
package ope

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/crypto/prf"
)

// PlainBits is the supported plaintext domain width in bits.
const PlainBits = 48

// CipherBits is the ciphertext range width in bits.
const CipherBits = 126

// CiphertextSize is the OPE ciphertext size in bytes.
const CiphertextSize = 16

// bias converts signed plaintexts into the unsigned domain.
const bias = int64(1) << (PlainBits - 1)

// ErrNotCiphertext reports that the bytes handed to Decrypt have the right
// length but are not the encryption of any plaintext under this key: a
// corrupted cell, or a ciphertext of another column.
var ErrNotCiphertext = errors.New("ope: not a ciphertext under this key")

// Scheme is an OPE key for one column.
type Scheme struct {
	f *prf.PRF
}

// New creates an OPE scheme from a 16-byte key.
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

// u128 is an unsigned 128-bit integer. The walk's interval ends stay below
// 2^127, so no operation here overflows.
type u128 struct{ hi, lo uint64 }

// top is the exclusive upper end of the ciphertext range, 2^CipherBits.
var top = u128{hi: 1 << (CipherBits - 64)}

// less reports a < b.
func (a u128) less(b u128) bool {
	return a.hi < b.hi || (a.hi == b.hi && a.lo < b.lo)
}

// succ returns a + 1.
func (a u128) succ() u128 {
	lo, c := bits.Add64(a.lo, 1, 0)
	return u128{a.hi + c, lo}
}

// split computes the pseudorandom split point of [lo, hi] for the given bit
// path: lo + gap/4 + (PRF(path) mod gap/2), i.e. within the middle half.
func (s *Scheme) split(sc *prf.Scratch, lo, hi u128, depth int, path uint64) u128 {
	gapLo, b := bits.Sub64(hi.lo, lo.lo, 0)
	gapHi, _ := bits.Sub64(hi.hi, lo.hi, b)
	quarter := u128{gapHi >> 2, gapLo>>2 | gapHi<<62}
	half := u128{gapHi >> 1, gapLo>>1 | gapHi<<63}
	off := s.f.Eval64In(sc, uint32(depth), path)
	if half.hi == 0 {
		// The gap never falls below 2^30, so half.lo is nonzero. When
		// half ≥ 2^64 the 64-bit PRF output is its own remainder.
		off %= half.lo
	}
	spLo, c := bits.Add64(lo.lo, quarter.lo, 0)
	spHi, _ := bits.Add64(lo.hi, quarter.hi, c)
	spLo, c = bits.Add64(spLo, off, 0)
	return u128{spHi + c, spLo}
}

// Encrypt maps a signed plaintext to its order-preserving ciphertext,
// a CiphertextSize-byte big-endian value.
func (s *Scheme) Encrypt(x int64) ([]byte, error) {
	// The result doubles as the walk's scratch block (EncryptIn allows the
	// aliasing), so the ciphertext is the call's only allocation.
	out := new([CiphertextSize]byte)
	if err := s.EncryptIn((*prf.Scratch)(out), out, x); err != nil {
		return nil, err
	}
	return out[:], nil
}

// EncryptIn is Encrypt with the PRF evaluated in the caller's scratch block
// and the ciphertext written to dst: it allocates nothing. dst is written
// only after the last PRF call, so it may be the scratch block itself.
func (s *Scheme) EncryptIn(sc *prf.Scratch, dst *[CiphertextSize]byte, x int64) error {
	u := x + bias
	if u < 0 || u >= int64(1)<<PlainBits {
		return fmt.Errorf("ope: plaintext %d outside ±2^%d domain", x, PlainBits-1)
	}
	var lo u128
	hi := top
	path := uint64(1) // bit path with a leading sentinel 1
	for i := PlainBits - 1; i >= 0; i-- {
		sp := s.split(sc, lo, hi, i, path)
		bit := (uint64(u) >> uint(i)) & 1
		if bit == 0 {
			hi = sp
		} else {
			lo = sp.succ()
		}
		path = path<<1 | bit
	}
	binary.BigEndian.PutUint64(dst[:8], lo.hi)
	binary.BigEndian.PutUint64(dst[8:], lo.lo)
	return nil
}

// MustEncrypt is Encrypt for values known to be in-domain.
func (s *Scheme) MustEncrypt(x int64) []byte {
	c, err := s.Encrypt(x)
	if err != nil {
		panic(err)
	}
	return c
}

// Decrypt inverts Encrypt by replaying the binary search on the ciphertext.
// Bytes that are not in Encrypt's image yield ErrNotCiphertext.
func (s *Scheme) Decrypt(ct []byte) (int64, error) {
	var sc prf.Scratch
	return s.DecryptIn(&sc, ct)
}

// DecryptIn is Decrypt with the PRF evaluated in the caller's scratch block:
// it allocates nothing.
func (s *Scheme) DecryptIn(sc *prf.Scratch, ct []byte) (int64, error) {
	if len(ct) != CiphertextSize {
		return 0, fmt.Errorf("ope: ciphertext must be %d bytes, got %d", CiphertextSize, len(ct))
	}
	c := u128{binary.BigEndian.Uint64(ct[:8]), binary.BigEndian.Uint64(ct[8:])}
	var lo u128
	hi := top
	path := uint64(1)
	var u uint64
	for i := PlainBits - 1; i >= 0; i-- {
		sp := s.split(sc, lo, hi, i, path)
		var bit uint64
		if sp.less(c) {
			bit = 1
			lo = sp.succ()
		} else {
			hi = sp
		}
		u |= bit << uint(i)
		path = path<<1 | bit
	}
	// Encrypt emits the low end of the interval its walk finishes on, and
	// a ciphertext steers this walk down the same path.
	if c != lo {
		return 0, ErrNotCiphertext
	}
	return int64(u) - bias, nil
}
