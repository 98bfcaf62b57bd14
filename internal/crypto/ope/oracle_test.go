package ope

// The math/big form of the scheme — the one ope.go shipped before its walk
// moved onto machine words — kept as the reference the word form is checked
// against: same PRF calls, arbitrary-precision interval arithmetic.

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/crypto/prf"
)

const (
	minPlain = -(int64(1) << (PlainBits - 1))
	maxPlain = int64(1)<<(PlainBits-1) - 1
)

func oracleSplit(s *Scheme, lo, hi *big.Int, depth int, path uint64) *big.Int {
	gap := new(big.Int).Sub(hi, lo)
	quarter := new(big.Int).Rsh(gap, 2)
	half := new(big.Int).Rsh(gap, 1)
	var sc prf.Scratch
	r := s.f.Eval64In(&sc, uint32(depth), path)
	off := new(big.Int).Mod(new(big.Int).SetUint64(r), half)
	sp := new(big.Int).Add(lo, quarter)
	return sp.Add(sp, off)
}

// oracleEncrypt is Encrypt for an in-domain x.
func oracleEncrypt(s *Scheme, x int64) []byte {
	u := uint64(x + bias)
	lo := big.NewInt(0)
	hi := new(big.Int).Lsh(big.NewInt(1), CipherBits)
	path := uint64(1)
	for i := PlainBits - 1; i >= 0; i-- {
		sp := oracleSplit(s, lo, hi, i, path)
		bit := (u >> uint(i)) & 1
		if bit == 0 {
			hi = sp
		} else {
			lo = sp.Add(sp, big.NewInt(1))
		}
		path = path<<1 | bit
	}
	out := make([]byte, CiphertextSize)
	lo.FillBytes(out)
	return out
}

// oracleDecrypt replays the search on a CiphertextSize-byte ct: the plaintext
// the walk lands on, and whether ct is that plaintext's ciphertext.
func oracleDecrypt(s *Scheme, ct []byte) (x int64, inImage bool) {
	c := new(big.Int).SetBytes(ct)
	lo := big.NewInt(0)
	hi := new(big.Int).Lsh(big.NewInt(1), CipherBits)
	path := uint64(1)
	var u uint64
	for i := PlainBits - 1; i >= 0; i-- {
		sp := oracleSplit(s, lo, hi, i, path)
		var bit uint64
		if c.Cmp(sp) > 0 {
			bit = 1
			lo = sp.Add(sp, big.NewInt(1))
		} else {
			hi = sp
		}
		u |= bit << uint(i)
		path = path<<1 | bit
	}
	x = int64(u) - bias
	return x, bytes.Equal(oracleEncrypt(s, x), ct)
}

// oracleValues is the fixed part of the comparison set: zero, its neighbours,
// and both domain edges with theirs.
var oracleValues = []int64{0, 1, -1, 2, -2, minPlain, minPlain + 1, minPlain + 2, maxPlain, maxPlain - 1, maxPlain - 2}

// TestMatchesBigIntOracle: under three keys, the word form produces the
// oracle's ciphertext for every fixed value and 20 000 seeded random ones,
// and decrypts each back.
func TestMatchesBigIntOracle(t *testing.T) {
	for _, label := range []string{"ope/a", "ope/b", "ope/c"} {
		s := MustNew(prf.DeriveKey([]byte("oracle"), label))
		rng := rand.New(rand.NewSource(int64(len(label)) + int64(label[4])))
		xs := append([]int64(nil), oracleValues...)
		n := 20000
		if testing.Short() {
			n = 2000
		}
		for i := 0; i < n; i++ {
			xs = append(xs, rng.Int63n(1<<PlainBits)+minPlain)
		}
		var sc prf.Scratch
		var ct [CiphertextSize]byte
		for _, x := range xs {
			want := oracleEncrypt(s, x)
			if err := s.EncryptIn(&sc, &ct, x); err != nil || !bytes.Equal(ct[:], want) {
				t.Fatalf("%s: EncryptIn(%d) = %x, %v; oracle %x", label, x, ct, err, want)
			}
			if got, err := s.Encrypt(x); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: Encrypt(%d) = %x, %v; oracle %x", label, x, got, err, want)
			}
			ox, ok := oracleDecrypt(s, want)
			got, err := s.DecryptIn(&sc, want)
			if err != nil || got != x || !ok || ox != x {
				t.Fatalf("%s: DecryptIn(Enc(%d)) = %d, %v; oracle %d, %v", label, x, got, err, ox, ok)
			}
		}
	}
}

// TestStrictOrderAtDomainEdges: the 1 000 ciphertexts at each end of the
// domain are strictly increasing, and the lowest edge sorts below, the
// highest above, everything in between.
func TestStrictOrderAtDomainEdges(t *testing.T) {
	s := scheme()
	for _, start := range []int64{minPlain, maxPlain - 999} {
		prev := s.MustEncrypt(start)
		for x := start + 1; x < start+1000; x++ {
			c := s.MustEncrypt(x)
			if bytes.Compare(prev, c) >= 0 {
				t.Fatalf("Enc(%d) = %x is not above Enc(%d) = %x", x, c, x-1, prev)
			}
			prev = c
		}
	}
	lo, hi := s.MustEncrypt(minPlain), s.MustEncrypt(maxPlain)
	for _, x := range []int64{minPlain + 1, -1, 0, 1, maxPlain - 1} {
		c := s.MustEncrypt(x)
		if bytes.Compare(lo, c) >= 0 || bytes.Compare(c, hi) >= 0 {
			t.Errorf("Enc(%d) = %x is not strictly between the edge ciphertexts", x, c)
		}
	}
}

// TestDecryptRejectsNonCiphertexts: every single-bit flip of a ciphertext,
// a ciphertext of another key, and values past the 126-bit range are
// ErrNotCiphertext (all zero bytes is no such case: the walk of the lowest
// plaintext never moves the low end off 0); a wrong length is an error of
// another kind.
func TestDecryptRejectsNonCiphertexts(t *testing.T) {
	s := scheme()
	for _, x := range []int64{0, 9131, minPlain, maxPlain} {
		ct := s.MustEncrypt(x)
		for bit := 0; bit < 8*CiphertextSize; bit++ {
			bad := append([]byte(nil), ct...)
			bad[bit/8] ^= 1 << (bit % 8)
			if got, err := s.Decrypt(bad); !errors.Is(err, ErrNotCiphertext) {
				t.Fatalf("Enc(%d) with bit %d flipped decrypts to %d, %v", x, bit, got, err)
			}
		}
	}
	other := MustNew(prf.DeriveKey([]byte("k"), "ope/other")).MustEncrypt(12345)
	for name, bad := range map[string][]byte{
		"another key's ciphertext": other,
		"one past the range":       append([]byte{0x40}, make([]byte, CiphertextSize-1)...), // 2^126
		"all ones":                 bytes.Repeat([]byte{0xff}, CiphertextSize),
	} {
		if got, err := s.Decrypt(bad); !errors.Is(err, ErrNotCiphertext) {
			t.Errorf("%s decrypts to %d, %v", name, got, err)
		}
	}
	if _, err := s.Decrypt(make([]byte, CiphertextSize-1)); err == nil || errors.Is(err, ErrNotCiphertext) {
		t.Errorf("short input: %v, want a length error", err)
	}
}

// FuzzDecrypt: Decrypt never panics on 16 arbitrary bytes and agrees with the
// oracle's walk plus its image check — the plaintext when the bytes are a
// ciphertext, ErrNotCiphertext otherwise.
func FuzzDecrypt(f *testing.F) {
	s := scheme()
	valid := s.MustEncrypt(9131)
	f.Add(valid)
	f.Add(s.MustEncrypt(minPlain))
	f.Add(s.MustEncrypt(maxPlain))
	f.Add(make([]byte, CiphertextSize))
	f.Add(bytes.Repeat([]byte{0xff}, CiphertextSize))
	f.Add(append([]byte{0x40}, make([]byte, CiphertextSize-1)...)) // 2^126, one past the range
	for bit := 0; bit < 8*CiphertextSize; bit++ {
		bad := append([]byte(nil), valid...)
		bad[bit/8] ^= 1 << (bit % 8)
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, ct []byte) {
		got, err := s.Decrypt(ct)
		if len(ct) != CiphertextSize {
			if err == nil || errors.Is(err, ErrNotCiphertext) {
				t.Fatalf("%d-byte input: %v, want a length error", len(ct), err)
			}
			return
		}
		want, ok := oracleDecrypt(s, ct)
		switch {
		case ok && (err != nil || got != want):
			t.Fatalf("Decrypt(%x) = %d, %v; oracle %d", ct, got, err, want)
		case !ok && !errors.Is(err, ErrNotCiphertext):
			t.Fatalf("Decrypt(%x) = %d, %v; oracle says not a ciphertext", ct, got, err)
		}
	})
}

// TestAllocations: Encrypt allocates its result and nothing else; the In
// forms, given the caller's scratch and buffer, allocate nothing.
func TestAllocations(t *testing.T) {
	s := scheme()
	var sc prf.Scratch
	var ct [CiphertextSize]byte
	if n := testing.AllocsPerRun(100, func() { s.MustEncrypt(9131) }); n > 1 {
		t.Errorf("Encrypt: %v allocations, want ≤ 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.EncryptIn(&sc, &ct, 9131) }); n != 0 {
		t.Errorf("EncryptIn: %v allocations, want 0", n)
	}
	valid := s.MustEncrypt(9131)
	if n := testing.AllocsPerRun(100, func() { _, _ = s.DecryptIn(&sc, valid) }); n != 0 {
		t.Errorf("DecryptIn: %v allocations, want 0", n)
	}
}
