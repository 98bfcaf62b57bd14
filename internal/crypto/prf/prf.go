// Package prf provides the keyed pseudorandom-function and key-derivation
// primitives shared by MONOMI's encryption schemes (DET, OPE, SEARCH).
//
// All schemes in this reproduction are built from AES-128 (via crypto/aes)
// and SHA-256 (for key derivation), mirroring the paper's use of OpenSSL
// primitives. A single master key is expanded into independent per-scheme,
// per-column subkeys so that, e.g., the DET encryption of a value in one
// column is unlinkable to the DET encryption of the same value in another.
package prf

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
)

// KeySize is the subkey size in bytes (AES-128).
const KeySize = 16

// DeriveKey derives an independent subkey from a master key and a purpose
// label (e.g. "det/lineitem.l_shipdate"). HMAC-SHA256 truncated to 128 bits.
func DeriveKey(master []byte, label string) []byte {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte(label))
	return mac.Sum(nil)[:KeySize]
}

// PRF is an AES-based pseudorandom function from 64-bit tweaked inputs to
// 128-bit outputs. It is deterministic for a fixed key.
type PRF struct {
	block cipher.Block
}

// New creates a PRF from a 16-byte key.
func New(key []byte) (*PRF, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("prf: key must be %d bytes, got %d", KeySize, len(key))
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &PRF{block: b}, nil
}

// MustNew is New for keys known to be valid.
func MustNew(key []byte) *PRF {
	p, err := New(key)
	if err != nil {
		panic(err)
	}
	return p
}

// Scratch is the AES block one Eval64In works in. The block cipher sits
// behind an interface, so a block declared inside the call would escape to
// the heap every time; a caller evaluating in a loop (a Feistel network, an
// OPE walk, a column of ciphertexts) keeps one Scratch and passes it in.
type Scratch [16]byte

// Eval64In evaluates the PRF on (tweak, x) in the caller's scratch block and
// returns a uint64.
func (p *PRF) Eval64In(s *Scratch, tweak uint32, x uint64) uint64 {
	binary.BigEndian.PutUint64(s[0:], uint64(tweak)<<32)
	binary.BigEndian.PutUint64(s[8:], x)
	p.block.Encrypt(s[:], s[:])
	return binary.BigEndian.Uint64(s[:8])
}

// EvalBytes evaluates the PRF on arbitrary bytes (CBC-MAC style) and returns
// a 16-byte output. Inputs of different lengths never collide because the
// length is folded into the first block.
func (p *PRF) EvalBytes(tweak uint32, data []byte) [16]byte {
	var s Scratch
	p.EvalBytesIn(&s, tweak, data)
	return s
}

// EvalBytesIn is EvalBytes computed in, and left in, the caller's scratch
// block: each data block, zero-padded, is XORed into the running MAC.
func (p *PRF) EvalBytesIn(s *Scratch, tweak uint32, data []byte) {
	*s = Scratch{}
	binary.BigEndian.PutUint32(s[0:], tweak)
	binary.BigEndian.PutUint64(s[8:], uint64(len(data)))
	p.block.Encrypt(s[:], s[:])
	for len(data) > 0 {
		n := min(len(data), len(s))
		subtle.XORBytes(s[:n], s[:n], data[:n])
		p.block.Encrypt(s[:], s[:])
		data = data[n:]
	}
}

// Stream fills dst with a deterministic keystream derived from (tweak, seed).
// Used for Feistel round functions over long byte strings.
func (p *PRF) Stream(tweak uint32, seed []byte, dst []byte) {
	var s Scratch
	clear(dst)
	p.XORStreamIn(&s, tweak, seed, dst)
}

// XORStreamIn XORs Stream's keystream of (tweak, seed) into dst, working in
// the caller's scratch block, so it allocates nothing: AES in counter mode
// from the IV EvalBytes(tweak, seed), the blocks E(iv), E(iv+1), … with a
// 128-bit big-endian counter, which is cipher.NewCTR's keystream. seed is
// read before dst is written, but must not overlap it.
func (p *PRF) XORStreamIn(s *Scratch, tweak uint32, seed, dst []byte) {
	p.EvalBytesIn(s, tweak, seed)
	ctr := *s
	for len(dst) > 0 {
		*s = ctr
		p.block.Encrypt(s[:], s[:])
		n := subtle.XORBytes(dst, dst, s[:])
		dst = dst[n:]
		for i := len(ctr) - 1; i >= 0; i-- {
			if ctr[i]++; ctr[i] != 0 {
				break
			}
		}
	}
}

// Perm256 builds a keyed permutation of the byte domain [0,256), used for
// format-preserving encryption of single-byte values. The permutation is a
// Fisher–Yates shuffle driven by the PRF.
func (p *PRF) Perm256(tweak uint32) (perm, inv [256]byte) {
	for i := 0; i < 256; i++ {
		perm[i] = byte(i)
	}
	var s Scratch
	for i := 255; i > 0; i-- {
		j := int(p.Eval64In(&s, tweak, uint64(i)) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < 256; i++ {
		inv[perm[i]] = byte(i)
	}
	return perm, inv
}
