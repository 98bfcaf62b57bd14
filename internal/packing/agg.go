package packing

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"runtime"
	"sort"
	"sync"

	"repro/internal/crypto/paillier"
)

// Grouped homomorphic aggregation protocol.
//
// The server-side UDF receives the row_ids of a group's matching rows and
// produces a compact wire result:
//
//   - every pack whose rows ALL matched is folded into a single running
//     product (one modular multiplication per pack — §5.3's "one modular
//     multiplication per row" collapses to per-pack with multi-row packing);
//   - packs that matched only partially are shipped whole, with a bitmask
//     of which of their rows matched; the client decrypts those few packs
//     and adds only the masked slots.
//
// With RowsPerCipher = 1 (per-row Paillier, the CryptDB-era baseline) every
// pack is trivially fully matched and the protocol degenerates to the
// classic PAILLIER_SUM.

// wireVersion tags the aggregation wire format.
const wireVersion = 1

// SumResult is the server's aggregation output before encoding.
type SumResult struct {
	Product  *big.Int // product of fully-matched pack ciphertexts; nil if none
	Partials []Partial
	// SawRows distinguishes "the group had rows but none matched the
	// conditional" (sum = 0) from "the aggregate ran over zero rows"
	// (sum = NULL). The UDF sets it when it observed any input row.
	SawRows  bool
	MulOps   int   // modular multiplications performed (server CPU model)
	ReadSize int64 // ciphertext bytes read from the pack store
}

// Partial is one partially-matched pack.
type Partial struct {
	Mask   uint64 // bit i set = row at offset i of the pack matched
	Cipher *big.Int
}

// minPacksPerShard is the smallest ciphertext batch worth a goroutine: a
// modular multiplication of 2,048-bit ciphertexts is expensive, but not so
// expensive that two of them justify a spawn.
const minPacksPerShard = 16

// HomSum aggregates the given row IDs on the server. rowIDs need not be
// sorted; duplicates are rejected. The modular multiplications of
// fully-matched packs are batched into per-shard ciphertext products on
// min(GOMAXPROCS, full packs / minPacksPerShard) goroutines, whose partial
// products then combine. The result is identical at every shard count
// (ciphertext multiplication mod N² is commutative and associative), and
// MulOps counts every multiplication performed, which the sharding does
// not change.
func HomSum(s *Store, rowIDs []int) (*SumResult, error) {
	type packAcc struct {
		mask  uint64
		count int
	}
	packs := make(map[int]*packAcc)
	for _, id := range rowIDs {
		if id < 0 || id >= s.NumRows {
			return nil, fmt.Errorf("packing: row id %d out of range [0,%d)", id, s.NumRows)
		}
		p, off := s.PackIndex(id)
		acc := packs[p]
		if acc == nil {
			acc = &packAcc{}
			packs[p] = acc
		}
		bit := uint64(1) << uint(off)
		if acc.mask&bit != 0 {
			return nil, fmt.Errorf("packing: duplicate row id %d", id)
		}
		acc.mask |= bit
		acc.count++
	}

	// Split packs into fully matched (foldable server-side) and partial
	// (shipped whole with a row mask). Visiting packs in index order keeps
	// the output — and the wire encoding — deterministic regardless of map
	// iteration order.
	ids := make([]int, 0, len(packs))
	for p := range packs {
		ids = append(ids, p)
	}
	sort.Ints(ids)
	res := &SumResult{}
	var full []*big.Int
	for _, p := range ids {
		acc := packs[p]
		res.ReadSize += int64(s.CipherBytes())
		if acc.count == s.RowsInPack(p) {
			full = append(full, s.Ciphers[p])
			continue
		}
		res.Partials = append(res.Partials, Partial{Mask: acc.mask, Cipher: s.Ciphers[p]})
	}
	if len(full) == 0 {
		return res, nil
	}
	res.MulOps = len(full) - 1

	shards := min(runtime.GOMAXPROCS(0), len(full)/minPacksPerShard)
	if shards <= 1 {
		res.Product = s.Key.ProductCipher(full)
		return res, nil
	}
	partials := make([]*big.Int, shards)
	var wg sync.WaitGroup
	wg.Add(shards)
	lo := 0
	for i := 0; i < shards; i++ {
		hi := lo + (len(full)-lo)/(shards-i)
		go func(i, lo, hi int) {
			defer wg.Done()
			partials[i] = s.Key.ProductCipher(full[lo:hi])
		}(i, lo, hi)
		lo = hi
	}
	wg.Wait()
	res.Product = s.Key.ProductCipher(partials)
	return res, nil
}

// Encode serializes the result for transfer to the client. cipherBytes is
// the fixed ciphertext width.
func (r *SumResult) Encode(cipherBytes int) []byte {
	size := 3 + 4 + len(r.Partials)*(8+cipherBytes)
	if r.Product != nil {
		size += cipherBytes
	}
	out := make([]byte, 0, size)
	out = append(out, wireVersion)
	if r.SawRows {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	if r.Product != nil {
		out = append(out, 1)
		buf := make([]byte, cipherBytes)
		r.Product.FillBytes(buf)
		out = append(out, buf...)
	} else {
		out = append(out, 0)
	}
	var n4 [4]byte
	binary.BigEndian.PutUint32(n4[:], uint32(len(r.Partials)))
	out = append(out, n4[:]...)
	for _, p := range r.Partials {
		var m8 [8]byte
		binary.BigEndian.PutUint64(m8[:], p.Mask)
		out = append(out, m8[:]...)
		buf := make([]byte, cipherBytes)
		p.Cipher.FillBytes(buf)
		out = append(out, buf...)
	}
	return out
}

// DecodeSumResult parses the wire format.
func DecodeSumResult(wire []byte, cipherBytes int) (*SumResult, error) {
	if len(wire) < 6 {
		return nil, fmt.Errorf("packing: truncated aggregation result")
	}
	if wire[0] != wireVersion {
		return nil, fmt.Errorf("packing: unknown wire version %d", wire[0])
	}
	res := &SumResult{}
	pos := 1
	res.SawRows = wire[pos] == 1
	pos++
	if len(wire) < pos+1 {
		return nil, fmt.Errorf("packing: truncated header")
	}
	hasProduct := wire[pos] == 1
	pos++
	if hasProduct {
		if len(wire) < pos+cipherBytes {
			return nil, fmt.Errorf("packing: truncated product ciphertext")
		}
		res.Product = new(big.Int).SetBytes(wire[pos : pos+cipherBytes])
		pos += cipherBytes
	}
	if len(wire) < pos+4 {
		return nil, fmt.Errorf("packing: truncated partial count")
	}
	n := int(binary.BigEndian.Uint32(wire[pos : pos+4]))
	pos += 4
	for i := 0; i < n; i++ {
		if len(wire) < pos+8+cipherBytes {
			return nil, fmt.Errorf("packing: truncated partial %d", i)
		}
		mask := binary.BigEndian.Uint64(wire[pos : pos+8])
		pos += 8
		c := new(big.Int).SetBytes(wire[pos : pos+cipherBytes])
		pos += cipherBytes
		res.Partials = append(res.Partials, Partial{Mask: mask, Cipher: c})
	}
	return res, nil
}

// plainCacheShards is the lock-striping factor of PlainCache: enough that
// a client fanning batch decryption across a few workers rarely contends,
// small enough that an idle cache stays negligible.
const plainCacheShards = 8

// PlainCache memoizes Paillier decryptions of partial packs. The same pack
// ciphertext reaches the client once per group that touches it (e.g. Q1's
// four groups interleave within packs); one decryption recovers every slot,
// so caching by ciphertext collapses the repeats. Safe for concurrent use:
// entries stripe across mutex-guarded shards, so the client's parallel
// decode workers share one cache without serializing on it.
type PlainCache struct {
	shards [plainCacheShards]plainShard
}

type plainShard struct {
	mu sync.Mutex
	m  map[string]*big.Int
}

// NewPlainCache creates an empty cache.
func NewPlainCache() *PlainCache { return &PlainCache{} }

// shard picks the stripe for a key (FNV-1a over the ciphertext bytes).
func (c *PlainCache) shard(key string) *plainShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%plainCacheShards]
}

// Get returns the memoized plaintext for key, or nil.
func (c *PlainCache) Get(key string) *big.Int {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[key]
}

// Put memoizes one decryption.
func (c *PlainCache) Put(key string, m *big.Int) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*big.Int)
	}
	s.m[key] = m
}

// Len reports the number of memoized packs (for tests).
func (c *PlainCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}

// ClientSums finishes the aggregation on the trusted client: decrypt the
// product and each partial pack, then add up the relevant slots. Returns
// one sum per layout column and the number of Paillier decryptions
// performed (the dominant client CPU cost the planner models, §6.4).
// cache may be nil.
func ClientSums(key *paillier.Key, layout Layout, res *SumResult, cache *PlainCache) ([]int64, int, error) {
	sums := make([]int64, len(layout.Cols))
	decrypts := 0
	if res.Product != nil {
		m, err := key.Decrypt(res.Product)
		if err != nil {
			return nil, 0, err
		}
		decrypts++
		for j, v := range layout.ColumnSums(m) {
			sums[j] += v
		}
	}
	for _, p := range res.Partials {
		var m *big.Int
		ck := ""
		if cache != nil {
			ck = string(key.CiphertextBytes(p.Cipher))
			m = cache.Get(ck)
		}
		if m == nil {
			var err error
			m, err = key.Decrypt(p.Cipher)
			if err != nil {
				return nil, 0, err
			}
			decrypts++
			if cache != nil {
				cache.Put(ck, m)
			}
		}
		rows := layout.Unpack(m)
		for i, row := range rows {
			if p.Mask&(1<<uint(i)) == 0 {
				continue
			}
			for j, v := range row {
				sums[j] += v
			}
		}
	}
	return sums, decrypts, nil
}
