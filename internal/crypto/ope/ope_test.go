package ope

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/crypto/prf"
)

func scheme() *Scheme { return MustNew(prf.DeriveKey([]byte("k"), "ope/test")) }

// clamp maps arbitrary int64s into the supported plaintext domain.
func clamp(x int64) int64 {
	const lim = int64(1) << (PlainBits - 1)
	m := x % lim
	return m
}

func TestOrderPreservationProperty(t *testing.T) {
	s := scheme()
	f := func(a, b int64) bool {
		a, b = clamp(a), clamp(b)
		ca := s.MustEncrypt(a)
		cb := s.MustEncrypt(b)
		switch {
		case a < b:
			return bytes.Compare(ca, cb) < 0
		case a > b:
			return bytes.Compare(ca, cb) > 0
		default:
			return bytes.Equal(ca, cb)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	s := scheme()
	f := func(x int64) bool {
		x = clamp(x)
		got, err := s.Decrypt(s.MustEncrypt(x))
		return err == nil && got == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdjacentValuesDistinct(t *testing.T) {
	s := scheme()
	prev := s.MustEncrypt(-500)
	for x := int64(-499); x < 500; x++ {
		c := s.MustEncrypt(x)
		if bytes.Compare(prev, c) >= 0 {
			t.Fatalf("ciphertext for %d not strictly greater than for %d", x, x-1)
		}
		prev = c
	}
}

func TestDomainBounds(t *testing.T) {
	s := scheme()
	maxOK := int64(1)<<(PlainBits-1) - 1
	minOK := -(int64(1) << (PlainBits - 1))
	for _, x := range []int64{maxOK, minOK, 0} {
		c, err := s.Encrypt(x)
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", x, err)
		}
		got, err := s.Decrypt(c)
		if err != nil || got != x {
			t.Fatalf("round trip %d -> %d (%v)", x, got, err)
		}
	}
	if _, err := s.Encrypt(maxOK + 1); err == nil {
		t.Error("out-of-domain high should fail")
	}
	if _, err := s.Encrypt(minOK - 1); err == nil {
		t.Error("out-of-domain low should fail")
	}
}

func TestDeterminism(t *testing.T) {
	s := scheme()
	if !bytes.Equal(s.MustEncrypt(12345), s.MustEncrypt(12345)) {
		t.Error("OPE must be deterministic")
	}
	s2 := MustNew(prf.DeriveKey([]byte("k"), "ope/other"))
	if bytes.Equal(s.MustEncrypt(12345), s2.MustEncrypt(12345)) {
		t.Error("different keys should map differently")
	}
}

func TestCiphertextSize(t *testing.T) {
	s := scheme()
	if len(s.MustEncrypt(7)) != CiphertextSize {
		t.Errorf("size = %d", len(s.MustEncrypt(7)))
	}
	if _, err := s.Decrypt([]byte{1, 2, 3}); err == nil {
		t.Error("wrong-size ciphertext should fail")
	}
}

func BenchmarkEncrypt(b *testing.B) {
	s := scheme()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.MustEncrypt(int64(i % 100000))
	}
}

func BenchmarkDecrypt(b *testing.B) {
	s := scheme()
	cts := make([][]byte, 1000)
	for i := range cts {
		cts[i] = s.MustEncrypt(int64(7919 * i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Decrypt(cts[i%len(cts)]); err != nil {
			b.Fatal(err)
		}
	}
}
