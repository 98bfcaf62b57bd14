package client

import (
	"math/rand"
	"sync"

	"repro/internal/value"
)

// decryptCacheShards is the lock-striping factor: decode workers all consult
// the cache, so entries stripe across mutex-guarded shards (capacity split
// evenly) instead of funneling through one lock.
const decryptCacheShards = 8

// decryptCache is the paper's client-side decryption cache: 512 entries
// with a random eviction policy (§8.1). Repeating ciphertexts — DET group
// keys, dictionary-like columns — decrypt once. Safe for concurrent use;
// eviction stays random within each shard, which preserves the paper's
// policy in aggregate.
type decryptCache struct {
	shards []*dcShard
}

// cacheKey identifies one cached decryption: the key label's id, the
// plaintext kind the hit must have (two items of a join group share a label
// but may decrypt to different kinds), and the ciphertext — an integer for
// DET integers, bytes otherwise.
type cacheKey struct {
	i     int64
	label uint32
	kind  value.Kind
	b     string
}

type dcShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[cacheKey]value.Value
	keys     []cacheKey
	rng      *rand.Rand
}

func newDecryptCache(capacity int) *decryptCache {
	// A cache smaller than the stripe count would leave zero-capacity
	// shards that silently drop entries; tiny caches keep one shard (and
	// with it the exact global random-eviction behavior).
	nshards := decryptCacheShards
	if capacity < decryptCacheShards {
		nshards = 1
	}
	c := &decryptCache{shards: make([]*dcShard, nshards)}
	per := capacity / nshards
	extra := capacity % nshards
	for i := range c.shards {
		n := per
		if i < extra {
			n++
		}
		c.shards[i] = &dcShard{
			capacity: n,
			entries:  make(map[cacheKey]value.Value, n),
			rng:      rand.New(rand.NewSource(0x5eed + int64(i))),
		}
	}
	return c
}

// shard stripes a ciphertext by a multiplicative hash of its integer, or of
// its last eight bytes (an OPE ciphertext's leading bytes barely vary).
func (c *decryptCache) shard(label uint32, cv value.Value) *dcShard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	h := uint64(cv.I)
	b := cv.B
	if len(b) > 8 {
		b = b[len(b)-8:]
	}
	for _, x := range b {
		h = h<<8 | uint64(x)
	}
	h = (h ^ uint64(label)) * 0x9e3779b97f4a7c15
	return c.shards[(h>>32)%uint64(len(c.shards))]
}

// get probes for the plaintext of ciphertext cv under (label, kind). The key
// is built inside the index expression so a bytes ciphertext is compared in
// place: a probe allocates nothing.
func (c *decryptCache) get(label uint32, kind value.Kind, cv value.Value) (value.Value, bool) {
	s := c.shard(label, cv)
	s.mu.Lock()
	v, ok := s.entries[cacheKey{cv.I, label, kind, string(cv.B)}]
	s.mu.Unlock()
	return v, ok
}

func (c *decryptCache) put(label uint32, kind value.Kind, cv, pv value.Value) {
	s := c.shard(label, cv)
	key := cacheKey{cv.I, label, kind, string(cv.B)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity <= 0 {
		return
	}
	if _, exists := s.entries[key]; exists {
		s.entries[key] = pv
		return
	}
	if len(s.keys) >= s.capacity {
		i := s.rng.Intn(len(s.keys))
		delete(s.entries, s.keys[i])
		s.keys[i] = key
	} else {
		s.keys = append(s.keys, key)
	}
	s.entries[key] = pv
}

// Len reports the number of cached entries (for tests).
func (c *decryptCache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}
