package det

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/crypto/prf"
)

func scheme() *Scheme { return MustNew(prf.DeriveKey([]byte("k"), "det/test")) }

func TestUint64RoundTripProperty(t *testing.T) {
	s := scheme()
	f := func(x uint64) bool { return s.DecryptUint64(s.EncryptUint64(x)) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInt64RoundTripProperty(t *testing.T) {
	s := scheme()
	f := func(x int64) bool { return s.DecryptInt64(s.EncryptInt64(x)) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	s := scheme()
	if s.EncryptUint64(7) != s.EncryptUint64(7) {
		t.Error("DET must be deterministic")
	}
	s2 := MustNew(prf.DeriveKey([]byte("k"), "det/other"))
	if s.EncryptUint64(7) == s2.EncryptUint64(7) {
		t.Error("different keys should give different ciphertexts")
	}
}

func TestIntCiphertextsDiffer(t *testing.T) {
	s := scheme()
	seen := make(map[uint64]uint64)
	for x := uint64(0); x < 1000; x++ {
		c := s.EncryptUint64(x)
		if prev, ok := seen[c]; ok {
			t.Fatalf("collision: %d and %d -> %d", prev, x, c)
		}
		seen[c] = x
	}
}

func TestBytesRoundTripProperty(t *testing.T) {
	s := scheme()
	f := func(pt []byte) bool {
		ct := s.EncryptBytes(pt)
		if len(ct) != len(pt) {
			return false // must be length-preserving
		}
		return bytes.Equal(s.DecryptBytes(ct), pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesEdgeLengths(t *testing.T) {
	s := scheme()
	for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 31, 32, 33, 255} {
		pt := make([]byte, n)
		for i := range pt {
			pt[i] = byte(i * 7)
		}
		ct := s.EncryptBytes(pt)
		if len(ct) != n {
			t.Fatalf("len %d: ciphertext length %d", n, len(ct))
		}
		if n >= 2 && bytes.Equal(ct, pt) {
			t.Errorf("len %d: ciphertext equals plaintext", n)
		}
		if got := s.DecryptBytes(ct); !bytes.Equal(got, pt) {
			t.Fatalf("len %d: round trip failed", n)
		}
	}
}

func TestStringHelpers(t *testing.T) {
	s := scheme()
	ct := s.EncryptString("FRANCE")
	if s.DecryptString(ct) != "FRANCE" {
		t.Error("string round trip")
	}
	if !bytes.Equal(ct, s.EncryptString("FRANCE")) {
		t.Error("string DET must be deterministic")
	}
	if bytes.Equal(ct, s.EncryptString("GREECE")) {
		t.Error("distinct strings should encrypt differently")
	}
}

func TestInputNotMutated(t *testing.T) {
	s := scheme()
	pt := []byte("hello world")
	cp := append([]byte(nil), pt...)
	_ = s.EncryptBytes(pt)
	if !bytes.Equal(pt, cp) {
		t.Error("EncryptBytes must not mutate its input")
	}
}

func TestCiphertextSizeIsLengthPreserving(t *testing.T) {
	if CiphertextSize(10) != 10 || CiphertextSize(0) != 0 {
		t.Error("DET is length-preserving")
	}
}

// TestOneBytePermutationSharedScheme: the one-byte permutation is built once
// per Scheme, on first use. Eight goroutines race to that first use on one
// fresh Scheme, encrypting and decrypting every byte; each sees the
// permutation a scheme of its own computes (run under -race).
func TestOneBytePermutationSharedScheme(t *testing.T) {
	ref := scheme()
	want, _ := ref.f.Perm256(0x5eed)
	s := scheme()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 256; i++ {
				b := byte(i + 31*g)
				var ct []byte
				if g%2 == 0 {
					ct = s.EncryptBytes([]byte{b})
				} else { // the decrypt side may be the one that builds it
					ct = []byte{want[b]}
				}
				if len(ct) != 1 || ct[0] != want[b] {
					t.Errorf("goroutine %d: Enc(%#x) = %x, want %#x", g, b, ct, want[b])
					return
				}
				if pt := s.DecryptBytes(ct); len(pt) != 1 || pt[0] != b {
					t.Errorf("goroutine %d: Dec(Enc(%#x)) = %x", g, b, pt)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
