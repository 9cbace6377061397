package solver

import (
	"sync"

	"mcsafe/internal/expr"
	"mcsafe/internal/faults"
)

// cacheShards is the stripe count of a ShardedCache. A power of two so
// the shard index is a mask of the key fingerprint; 64 stripes keep
// contention negligible for the worker-pool sizes the checker uses
// (GOMAXPROCS).
const cacheShards = 64

// ShardedCache is a concurrency-safe formula-verdict cache: a striped
// (sharded-mutex) map from a formula's structural fingerprint to the
// prover's verdict for it. One ShardedCache may back any number of
// Provers running on concurrent goroutines, so parallel verification
// workers reuse each other's results instead of re-eliminating the
// same formulas.
//
// Keys are 128-bit fingerprints (expr.FP) instead of the canonical
// strings of earlier versions, so a probe costs one hash walk and no
// allocation. Because a stale or colliding entry must never flip a
// verdict, each entry also records the formula it was stored under, and
// Get verifies structural equality before reporting a hit: a
// fingerprint collision degrades to a cache miss, never to a wrong
// answer.
//
// Sharing is sound and deterministic because Prover.valid is a pure
// function of the formula (and the limits): every prover would store
// the same verdict for a given key, so a hit can never flip an answer
// — in particular it can never turn "not proved" into "proved".
type ShardedCache struct {
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[expr.FP]cacheEntry
}

// cacheEntry carries the verdict plus the formula it was computed for,
// which is checked on lookup.
type cacheEntry struct {
	f       expr.Formula
	verdict bool
}

// NewShardedCache returns an empty cache ready for concurrent use. A
// shard's map is made by its first Put, so a cache that stays small
// costs a few maps, not one per shard.
func NewShardedCache() *ShardedCache {
	return &ShardedCache{}
}

func (c *ShardedCache) shardOf(key expr.FP) *cacheShard {
	return &c.shards[key.Lo&(cacheShards-1)]
}

// Get returns the cached verdict for f, filed under its fingerprint
// key, and whether one is present. A fingerprint hit whose recorded
// formula does not match is reported as a miss.
func (c *ShardedCache) Get(key expr.FP, f expr.Formula) (verdict, ok bool) {
	faults.Fire(faults.CacheLookup)
	s := c.shardOf(key)
	s.mu.RLock()
	e, present := s.m[key]
	s.mu.RUnlock()
	if !present || !expr.Equal(e.f, f) {
		return false, false
	}
	return e.verdict, true
}

// Put records the verdict for f under its fingerprint key.
func (c *ShardedCache) Put(key expr.FP, f expr.Formula, verdict bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[expr.FP]cacheEntry)
	}
	s.m[key] = cacheEntry{f: f, verdict: verdict}
	s.mu.Unlock()
}

// Len reports the number of cached formulas.
func (c *ShardedCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
