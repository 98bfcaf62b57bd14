package prf

import (
	"bytes"
	"crypto/cipher"
	"encoding/binary"
	"testing"
)

func key() []byte { return DeriveKey([]byte("master"), "test") }

func TestDeriveKeyIndependence(t *testing.T) {
	k1 := DeriveKey([]byte("master"), "det/col1")
	k2 := DeriveKey([]byte("master"), "det/col2")
	k3 := DeriveKey([]byte("other"), "det/col1")
	if bytes.Equal(k1, k2) || bytes.Equal(k1, k3) {
		t.Error("derived keys must differ across labels and masters")
	}
	if !bytes.Equal(k1, DeriveKey([]byte("master"), "det/col1")) {
		t.Error("derivation must be deterministic")
	}
	if len(k1) != KeySize {
		t.Errorf("key size = %d", len(k1))
	}
}

func TestNewRejectsBadKey(t *testing.T) {
	if _, err := New([]byte("short")); err == nil {
		t.Error("expected error for wrong key size")
	}
}

func TestEval64Deterministic(t *testing.T) {
	p := MustNew(key())
	var sc Scratch
	a := p.Eval64In(&sc, 1, 42)
	if a != p.Eval64In(&sc, 1, 42) {
		t.Error("PRF must be deterministic")
	}
	if a == p.Eval64In(&sc, 2, 42) {
		t.Error("different tweaks should (overwhelmingly) differ")
	}
	if a == p.Eval64In(&sc, 1, 43) {
		t.Error("different inputs should (overwhelmingly) differ")
	}
}

func TestEvalBytesLengthSeparation(t *testing.T) {
	p := MustNew(key())
	// "a" vs "a\x00" would collide without length folding.
	a := p.EvalBytes(0, []byte("a"))
	b := p.EvalBytes(0, []byte("a\x00"))
	if a == b {
		t.Error("length must be folded into the MAC")
	}
}

func TestStreamDeterministic(t *testing.T) {
	p := MustNew(key())
	a := make([]byte, 64)
	b := make([]byte, 64)
	p.Stream(3, []byte("seed"), a)
	p.Stream(3, []byte("seed"), b)
	if !bytes.Equal(a, b) {
		t.Error("stream must be deterministic")
	}
	p.Stream(3, []byte("seed2"), b)
	if bytes.Equal(a, b) {
		t.Error("different seeds should differ")
	}
	allZero := true
	for _, x := range a {
		if x != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Error("stream should not be all zeros")
	}
}

func TestPerm256IsPermutation(t *testing.T) {
	p := MustNew(key())
	perm, inv := p.Perm256(9)
	seen := [256]bool{}
	for i := 0; i < 256; i++ {
		seen[perm[i]] = true
		if inv[perm[i]] != byte(i) {
			t.Fatalf("inv[perm[%d]] = %d", i, inv[perm[i]])
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("value %d missing from permutation", i)
		}
	}
}

// ctrReference is the keystream as it was first built: a CBC-MAC IV over
// a zero-padded copy of each block, then crypto/cipher's CTR mode.
func ctrReference(p *PRF, tweak uint32, seed []byte, n int) []byte {
	var acc, blk [16]byte
	binary.BigEndian.PutUint32(acc[0:], tweak)
	binary.BigEndian.PutUint64(acc[8:], uint64(len(seed)))
	p.block.Encrypt(acc[:], acc[:])
	for data := seed; len(data) > 0; {
		k := copy(blk[:], data)
		clear(blk[k:])
		for i := range acc {
			acc[i] ^= blk[i]
		}
		p.block.Encrypt(acc[:], acc[:])
		data = data[k:]
	}
	out := make([]byte, n)
	cipher.NewCTR(p.block, acc[:]).XORKeyStream(out, out)
	return out
}

// TestStreamKnownAnswer: Stream and XORStreamIn produce cipher.NewCTR's
// keystream from the CBC-MAC IV, byte for byte, for every length from 0 to
// 100 and seeds across the block boundaries, and XORStreamIn XORs it in.
func TestStreamKnownAnswer(t *testing.T) {
	p := MustNew(key())
	var s Scratch
	for n := 0; n <= 100; n++ {
		seed := bytes.Repeat([]byte{byte(n)}, n%37)
		want := ctrReference(p, uint32(n), seed, n)
		got := make([]byte, n)
		p.Stream(uint32(n), seed, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("length %d: Stream %x, want %x", n, got, want)
		}
		x := bytes.Repeat([]byte{0x5a}, n)
		p.XORStreamIn(&s, uint32(n), seed, x)
		for i := range x {
			x[i] ^= 0x5a
		}
		if !bytes.Equal(x, want) {
			t.Fatalf("length %d: XORStreamIn %x, want %x", n, x, want)
		}
	}
}

// TestXORStreamAllocs: a keystream in the caller's scratch allocates
// nothing.
func TestXORStreamAllocs(t *testing.T) {
	p := MustNew(key())
	var s Scratch
	seed, dst := make([]byte, 40), make([]byte, 41)
	if a := testing.AllocsPerRun(100, func() { p.XORStreamIn(&s, 1, seed, dst) }); a != 0 {
		t.Errorf("XORStreamIn allocates %.1f times, want 0", a)
	}
}
