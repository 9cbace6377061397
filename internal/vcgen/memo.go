package vcgen

import (
	"sort"
	"sync"

	"mcsafe/internal/expr"
)

// memo holds the Phase 5 results a later proof may reuse, each filed
// under the fingerprint of the context it was computed for and stored
// together with that context. An engine keeps two: loop-entry verdicts
// and crossing invariants (see Engine). A memo is safe for concurrent
// use, so a pool's workers can share one.
type memo[V any] struct {
	mu sync.Mutex
	m  map[expr.FP]memoEntry[V]
}

type memoEntry[V any] struct {
	ctx memoCtx
	v   V
}

func newMemo[V any]() *memo[V] {
	return &memo[V]{m: make(map[expr.FP]memoEntry[V])}
}

// memoCtx is the context a memoized result was computed for, flattened
// into ids and formulas: (header; w) for a loop-entry verdict, and for a
// crossing the loop header, then for the exit continuations, the
// targets and the loop-entry targets (by header) in turn, a count and
// the ascending ids in ids, their formulas in the same order in fs.
type memoCtx struct {
	ids []int
	fs  []expr.Formula
}

// add appends one id-to-formula map, in ascending id order.
func (c *memoCtx) add(m map[int]expr.Formula) {
	c.ids = append(c.ids, len(m))
	start := len(c.ids)
	for id := range m {
		c.ids = append(c.ids, id)
	}
	sort.Ints(c.ids[start:])
	for _, id := range c.ids[start:] {
		c.fs = append(c.fs, m[id])
	}
}

func (c memoCtx) key() expr.FP {
	key := expr.SeedFP(0xc5055)
	for _, id := range c.ids {
		key = key.Mixed(uint64(id))
	}
	for _, f := range c.fs {
		key = key.MixFP(expr.Fingerprint(f))
	}
	return key
}

// equal verifies a key hit: a fingerprint collision between different
// contexts is a miss.
func (c memoCtx) equal(d memoCtx) bool {
	if len(c.ids) != len(d.ids) || len(c.fs) != len(d.fs) {
		return false
	}
	for i := range c.ids {
		if c.ids[i] != d.ids[i] {
			return false
		}
	}
	for i := range c.fs {
		if !expr.Equal(c.fs[i], d.fs[i]) {
			return false
		}
	}
	return true
}

// memoized returns m's result for ctx, believed only when the stored
// context equals ctx, or computes it with prove, which is handed ctx's
// key. The result is stored only when the engine's storable rule holds
// for it. Lookups and verified hits are counted in the engine's Stats.
func memoized[V any](e *Engine, m *memo[V], ctx memoCtx, prove func(key expr.FP) V) V {
	key := ctx.key()
	e.Stats.CacheLookups++
	m.mu.Lock()
	ent, ok := m.m[key]
	m.mu.Unlock()
	if ok && ent.ctx.equal(ctx) {
		e.Stats.CacheHits++
		return ent.v
	}
	cuts := e.cuts
	v := prove(key)
	if e.storable(cuts) {
		m.mu.Lock()
		m.m[key] = memoEntry[V]{ctx: ctx, v: v}
		m.mu.Unlock()
	}
	return v
}
