package prf

import (
	"bytes"
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
