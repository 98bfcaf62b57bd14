package enc

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/crypto/det"
	"repro/internal/crypto/ope"
	"repro/internal/crypto/paillier"
	"repro/internal/crypto/prf"
	"repro/internal/crypto/rnd"
	"repro/internal/crypto/search"
	"repro/internal/value"
)

// KeyStore holds the master key and lazily derives per-item scheme
// instances. Only the trusted client owns a KeyStore (Figure 1: "the ODBC
// library ... is the only component that has access to the decryption
// keys").
type KeyStore struct {
	master   []byte
	paillier *paillier.Key

	mu     sync.Mutex
	labels map[string]*Cipher // by Item.KeyLabel: the label's derived scheme and id
}

// NewKeyStore creates a key store with the given master secret and Paillier
// modulus width (1024 in the paper; tests use smaller).
func NewKeyStore(master []byte, paillierBits int) (*KeyStore, error) {
	pk, err := paillier.GenerateKey(paillierBits)
	if err != nil {
		return nil, err
	}
	return &KeyStore{master: master, paillier: pk, labels: make(map[string]*Cipher)}, nil
}

// Paillier returns the store's Paillier keypair.
func (ks *KeyStore) Paillier() *paillier.Key { return ks.paillier }

// Close has nothing to release: a KeyStore starts no goroutines and holds no
// handles. The method stays because the benchmark's layer harness
// (bench/layers.go), whose files are frozen, closes the key store it built.
func (ks *KeyStore) Close() {}

// derive returns the cipher prototype for the item's key label — scheme
// instance and label id, no plaintext kind — deriving the subkey on first use.
func (ks *KeyStore) derive(it *Item) *Cipher {
	label := it.KeyLabel()
	ks.mu.Lock()
	defer ks.mu.Unlock()
	c, ok := ks.labels[label]
	if ok {
		return c
	}
	c = &Cipher{Label: uint32(len(ks.labels)), scheme: it.Scheme}
	key := prf.DeriveKey(ks.master, label)
	switch it.Scheme {
	case DET:
		c.det = det.MustNew(key)
	case OPE:
		c.ope = ope.MustNew(key)
	case RND:
		var err error
		if c.rnd, err = rnd.New(key); err != nil {
			panic(err) // a derived key always has the cipher's key size
		}
	case SEARCH:
		c.srch = search.MustNew(key)
	}
	ks.labels[label] = c
	return c
}

// Search returns the SEARCH scheme for an item.
func (ks *KeyStore) Search(it *Item) *search.Scheme { return ks.derive(it).srch }

// Cipher is an item resolved against the key store once — scheme instance
// derived, plaintext kind and key label looked up — so a loop over a column
// of values pays none of that per value. A Cipher carries the scratch block
// its DET rounds and OPE walks run in: each goroutine works on its
// own copy.
type Cipher struct {
	// Label is the dense id of the item's key label within this KeyStore:
	// two Ciphers share a subkey exactly when their Labels are equal.
	Label uint32
	// Kind is the plaintext kind Decrypt produces.
	Kind value.Kind

	scheme Scheme // selects which of the scheme instances below is set
	det    *det.Scheme
	ope    *ope.Scheme
	rnd    *rnd.Scheme
	srch   *search.Scheme
	sc     prf.Scratch
}

// Cipher resolves an item for bulk encryption or decryption.
func (ks *KeyStore) Cipher(it *Item) Cipher {
	c := *ks.derive(it)
	c.Kind = it.PlainKind
	return c
}

// EncryptValue encrypts one plaintext value under an item's scheme,
// producing the server-side representation. HOM items are handled by the
// pack store, not here.
func (ks *KeyStore) EncryptValue(it *Item, v value.Value) (value.Value, error) {
	c := ks.Cipher(it)
	return c.Encrypt(v)
}

// DecryptValue inverts EncryptValue using the item's recorded plaintext
// kind.
func (ks *KeyStore) DecryptValue(it *Item, cv value.Value) (value.Value, error) {
	c := ks.Cipher(it)
	return c.Decrypt(cv)
}

// Encrypt is KeyStore.EncryptValue for the resolved item.
func (c *Cipher) Encrypt(v value.Value) (value.Value, error) {
	if v.IsNull() {
		return value.NewNull(), nil
	}
	switch c.scheme {
	case DET:
		switch v.K {
		case value.Int, value.Date, value.Bool:
			return value.NewInt(int64(c.det.EncryptUint64In(&c.sc, uint64(v.AsInt())))), nil
		case value.Str:
			return value.NewBytes(c.det.EncryptBytesIn(&c.sc, []byte(v.S))), nil
		case value.Bytes:
			return value.NewBytes(c.det.EncryptBytesIn(&c.sc, v.B)), nil
		}
		return value.Value{}, fmt.Errorf("enc: DET cannot encrypt %v", v.K)
	case OPE:
		if !v.IsNumeric() {
			return value.Value{}, fmt.Errorf("enc: OPE requires numeric plaintext, got %v", v.K)
		}
		ct := new([ope.CiphertextSize]byte)
		if err := c.ope.EncryptIn(&c.sc, ct, v.AsInt()); err != nil {
			return value.Value{}, err
		}
		return value.NewBytes(ct[:]), nil
	case RND:
		pt, err := encodePlain(v)
		if err != nil {
			return value.Value{}, err
		}
		ct, err := c.rnd.Encrypt(pt)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBytes(ct), nil
	case SEARCH:
		if v.K != value.Str {
			return value.Value{}, fmt.Errorf("enc: SEARCH requires string plaintext, got %v", v.K)
		}
		return value.NewBytes(c.srch.EncryptText(v.S)), nil
	}
	return value.Value{}, fmt.Errorf("enc: cannot encrypt under %v", c.scheme)
}

// Decrypt is KeyStore.DecryptValue for the resolved item.
func (c *Cipher) Decrypt(cv value.Value) (value.Value, error) {
	if cv.IsNull() {
		return value.NewNull(), nil
	}
	switch c.scheme {
	case DET:
		switch c.Kind {
		case value.Int, value.Bool:
			return value.NewInt(int64(c.det.DecryptUint64In(&c.sc, uint64(cv.AsInt())))), nil
		case value.Date:
			return value.NewDate(int64(c.det.DecryptUint64In(&c.sc, uint64(cv.AsInt())))), nil
		case value.Str:
			return value.NewStr(c.det.DecryptStringIn(&c.sc, cv.B)), nil
		case value.Bytes:
			return value.NewBytes(c.det.DecryptBytesIn(&c.sc, cv.B)), nil
		}
		return value.Value{}, fmt.Errorf("enc: DET cannot decrypt to %v", c.Kind)
	case OPE:
		x, err := c.ope.DecryptIn(&c.sc, cv.B)
		if err != nil {
			return value.Value{}, err
		}
		if c.Kind == value.Date {
			return value.NewDate(x), nil
		}
		return value.NewInt(x), nil
	case RND:
		pt, err := c.rnd.Decrypt(cv.B)
		if err != nil {
			return value.Value{}, err
		}
		return decodePlain(c.Kind, pt)
	case SEARCH:
		return value.Value{}, fmt.Errorf("enc: SEARCH blobs are not decryptable (store a RND/DET copy)")
	}
	return value.Value{}, fmt.Errorf("enc: cannot decrypt %v", c.scheme)
}

// encodePlain serializes a plaintext value for RND encryption: an integer
// kind as 8 big-endian bytes, a Float as its 8 big-endian IEEE-754 bytes, a
// string or byte string as its bytes.
func encodePlain(v value.Value) ([]byte, error) {
	switch v.K {
	case value.Int, value.Date, value.Bool:
		return binary.BigEndian.AppendUint64(nil, uint64(v.I)), nil
	case value.Float:
		return binary.BigEndian.AppendUint64(nil, math.Float64bits(v.F)), nil
	case value.Str:
		return []byte(v.S), nil
	case value.Bytes:
		return v.B, nil
	}
	return nil, fmt.Errorf("enc: RND cannot encrypt %v", v.K)
}

// decodePlain inverts encodePlain.
func decodePlain(kind value.Kind, pt []byte) (value.Value, error) {
	switch kind {
	case value.Int, value.Date, value.Bool, value.Float:
		if len(pt) != 8 {
			return value.Value{}, fmt.Errorf("enc: bad %v plaintext length %d", kind, len(pt))
		}
		x := binary.BigEndian.Uint64(pt)
		switch kind {
		case value.Date:
			return value.NewDate(int64(x)), nil
		case value.Float:
			return value.NewFloat(math.Float64frombits(x)), nil
		}
		return value.NewInt(int64(x)), nil
	case value.Str:
		return value.NewStr(string(pt)), nil
	case value.Bytes:
		return value.NewBytes(pt), nil
	}
	return value.Value{}, fmt.Errorf("enc: cannot decode kind %v", kind)
}
