// Structural fingerprints and the formula intern table.
//
// The prover and the verification-condition engine used to key their
// caches by canonical formula strings, rebuilding the string on every
// probe. A fingerprint is a 128-bit structural hash computed in one
// allocation-free walk: equal formulas always have equal fingerprints,
// and the 128-bit width makes an accidental collision between the
// bounded number of distinct formulas of one checker run vanishingly
// unlikely (under 2^-90 for a billion formulas), which is the standard
// content-addressing argument. Call sites where a collision could
// change a verdict rather than just miss an optimization additionally
// verify structural equality with Equal (see ShardedCache), so the
// prover's soundness never rests on the hash at all.
package expr

import (
	"sync"
	"sync/atomic"
)

// FP is a 128-bit structural fingerprint of a formula, linear
// expression, or composite cache key. It is comparable and usable as a
// map key. The zero FP is never produced by the fingerprint functions.
type FP struct{ Hi, Lo uint64 }

// Two independent 64-bit mixers (Murmur3/SplitMix finalizer style) keep
// the Hi and Lo lanes decorrelated so the pair behaves as one 128-bit
// hash rather than two copies of the same 64-bit one.

func fpMixA(h, x uint64) uint64 {
	h ^= x
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func fpMixB(h, x uint64) uint64 {
	h ^= x + 0x9e3779b97f4a7c15
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 29
	return h
}

// SeedFP returns the fingerprint chain seeded with x. Distinct seeds
// start distinct chains; cache-key builders use it to tag key spaces.
func SeedFP(x uint64) FP {
	return FP{Hi: fpMixA(0x9e3779b97f4a7c15, x), Lo: fpMixB(0x85ebca6b0f6bcaa7, x)}
}

// Mixed folds one word into the fingerprint, order-dependently.
func (fp FP) Mixed(x uint64) FP { return FP{Hi: fpMixA(fp.Hi, x), Lo: fpMixB(fp.Lo, x)} }

// MixFP folds another fingerprint into this one, order-dependently.
// Composite cache keys (node × formula, loop-header × invariant) are
// built this way.
func (fp FP) MixFP(o FP) FP { return fp.Mixed(o.Hi).Mixed(o.Lo) }

// Node tags: one distinct word per formula constructor so structurally
// different trees mix differently even when their children agree.
const (
	fpTagTrue uint64 = 0x51 + iota
	fpTagFalse
	fpTagAtom
	fpTagNot
	fpTagAnd
	fpTagOr
	fpTagImpl
	fpTagForall
	fpTagExists
	fpTagLin
	fpTagVarPart
)

// varHash is FNV-1a over the variable's name.
func varHash(v Var) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= 1099511628211
	}
	return h
}

// VarPartFP fingerprints the variable part of e (the constant is
// ignored), commutatively over the coefficient map's entries so the
// map's iteration order cannot leak into the hash. With neg set it
// fingerprints the negated variable part, so a >= atom's upper-bound
// twin can be looked up without materializing e.Scale(-1). It is the
// fingerprint form of linKey.
func VarPartFP(e LinExpr, neg bool) FP {
	var hi, lo uint64
	for _, t := range e.Terms() {
		c := t.C
		if neg {
			c = -c
		}
		hv := varHash(t.V)
		// Commutative (additive) combine per entry; each entry is
		// internally mixed so (v1,c1)+(v2,c2) and (v1,c2)+(v2,c1)
		// disagree.
		hi += fpMixA(hv, uint64(c))
		lo += fpMixB(hv, uint64(c))
	}
	return FP{Hi: hi, Lo: lo}.Mixed(fpTagVarPart)
}

// LinFP fingerprints a linear expression, constant included.
func LinFP(e LinExpr) FP {
	return VarPartFP(e, false).Mixed(uint64(e.Const)).Mixed(fpTagLin)
}

func atomFP(a Atom) FP {
	return LinFP(a.E).Mixed(uint64(a.Kind)).Mixed(uint64(a.M)).Mixed(fpTagAtom)
}

// AtomFP fingerprints one atom — the per-atom ingredient of ClauseFP,
// exported so the prover's clause enumerator can precompute it per
// tree node and chain clause fingerprints incrementally.
func AtomFP(a Atom) FP { return atomFP(a) }

// ClauseFPSeed is the empty-clause state of the incremental clause
// fingerprint; extend with MixFP(AtomFP(a)) per atom in order and
// finish with ClauseFPDone.
func ClauseFPSeed() FP { return SeedFP(fpTagAnd) }

// ClauseFPDone finalizes an incremental clause fingerprint over n
// atoms; ClauseFPSeed/MixFP/ClauseFPDone compute exactly ClauseFP.
func (fp FP) ClauseFPDone(n int) FP { return fp.Mixed(uint64(n)) }

// ClauseFP fingerprints a clause (a conjunction of atoms), order-
// dependently — the prover's clause memo wants "same atoms in the same
// order", which is exactly what repeated DNF expansions of shared WLP
// prefixes produce.
func ClauseFP(c Clause) FP {
	fp := ClauseFPSeed()
	for _, a := range c {
		fp = fp.MixFP(atomFP(a))
	}
	return fp.ClauseFPDone(len(c))
}

// Fingerprint computes f's structural fingerprint in one walk with no
// allocation. Equal structures yield equal fingerprints; the converse
// holds up to 128-bit hash collisions.
func Fingerprint(f Formula) FP {
	switch g := f.(type) {
	case TrueF:
		return SeedFP(fpTagTrue)
	case FalseF:
		return SeedFP(fpTagFalse)
	case AtomF:
		return atomFP(g.A)
	case Not:
		return Fingerprint(g.F).Mixed(fpTagNot)
	case And:
		fp := SeedFP(fpTagAnd)
		for _, s := range g.Fs {
			fp = fp.MixFP(Fingerprint(s))
		}
		return fp.Mixed(uint64(len(g.Fs)))
	case Or:
		fp := SeedFP(fpTagOr)
		for _, s := range g.Fs {
			fp = fp.MixFP(Fingerprint(s))
		}
		return fp.Mixed(uint64(len(g.Fs)))
	case Impl:
		return SeedFP(fpTagImpl).MixFP(Fingerprint(g.A)).MixFP(Fingerprint(g.B))
	case Forall:
		return SeedFP(fpTagForall).Mixed(varHash(g.V)).MixFP(Fingerprint(g.F))
	case Exists:
		return SeedFP(fpTagExists).Mixed(varHash(g.V)).MixFP(Fingerprint(g.F))
	}
	return SeedFP(0)
}

// Equal reports structural equality of two formulas — the exact
// relation Fingerprint approximates. Cache layers that must never act
// on a hash collision call it to verify a fingerprint match; the walk
// is allocation-free and no slower than the string comparison it
// replaces.
func Equal(a, b Formula) bool {
	switch x := a.(type) {
	case TrueF:
		_, ok := b.(TrueF)
		return ok
	case FalseF:
		_, ok := b.(FalseF)
		return ok
	case AtomF:
		y, ok := b.(AtomF)
		return ok && x.A.Kind == y.A.Kind && x.A.M == y.A.M && x.A.E.Equal(y.A.E)
	case Not:
		y, ok := b.(Not)
		return ok && Equal(x.F, y.F)
	case And:
		y, ok := b.(And)
		if !ok || len(x.Fs) != len(y.Fs) {
			return false
		}
		for i := range x.Fs {
			if !Equal(x.Fs[i], y.Fs[i]) {
				return false
			}
		}
		return true
	case Or:
		y, ok := b.(Or)
		if !ok || len(x.Fs) != len(y.Fs) {
			return false
		}
		for i := range x.Fs {
			if !Equal(x.Fs[i], y.Fs[i]) {
				return false
			}
		}
		return true
	case Impl:
		y, ok := b.(Impl)
		return ok && Equal(x.A, y.A) && Equal(x.B, y.B)
	case Forall:
		y, ok := b.(Forall)
		return ok && x.V == y.V && Equal(x.F, y.F)
	case Exists:
		y, ok := b.(Exists)
		return ok && x.V == y.V && Equal(x.F, y.F)
	}
	return false
}

// SameVarPart reports whether a's and b's variable parts are equal
// (negated: whether varPart(a) == -varPart(b)), ignoring the constant
// terms. It is the exact relation VarPartFP approximates; subsumption
// and contradiction detection verify fingerprint matches with it so a
// hash collision can only miss an optimization, never merge unrelated
// constraints.
func SameVarPart(a, b LinExpr, negated bool) bool {
	at, bt := a.Terms(), b.Terms()
	if len(at) != len(bt) {
		return false
	}
	for i, t := range at {
		u := bt[i]
		w := u.C
		if negated {
			w = -w
		}
		if t.V != u.V || t.C != w {
			return false
		}
	}
	return true
}

// QuantFree reports whether f contains no quantifiers. The prover's
// quantifier elimination rebuilds the whole tree through the smart
// constructors; on the (common) quantifier-free formulas that rebuild
// is a no-op semantically, so callers use QuantFree to skip it — one
// read-only walk instead of a full reallocation.
func QuantFree(f Formula) bool {
	switch g := f.(type) {
	case Forall, Exists:
		return false
	case Not:
		return QuantFree(g.F)
	case And:
		for _, s := range g.Fs {
			if !QuantFree(s) {
				return false
			}
		}
		return true
	case Or:
		for _, s := range g.Fs {
			if !QuantFree(s) {
				return false
			}
		}
		return true
	case Impl:
		return QuantFree(g.A) && QuantFree(g.B)
	}
	return true
}

// internShards stripes the intern table; a power of two so the shard
// index is a mask of the fingerprint.
const internShards = 16

// Interner is a per-checker intern table mapping formula fingerprints
// to their canonical strings, so String() is computed once per unique
// term no matter how many observer spans or Explain attempts mention
// it. Each string is stored beside its formula, and a fingerprint match
// counts as a hit only when the formulas are Equal, so a collision
// renders the probe afresh. It is concurrency-safe (the Phase 5 worker
// pool shares one) and a nil *Interner degrades to plain f.String().
type Interner struct {
	shards [internShards]internShard
	terms  atomic.Int64
	hits   atomic.Int64
}

type internShard struct {
	mu sync.RWMutex
	m  map[FP]internEntry
}

// internEntry is one interned term: the formula and its rendering.
type internEntry struct {
	f Formula
	s string
}

// NewInterner returns an empty intern table ready for concurrent use.
func NewInterner() *Interner {
	in := &Interner{}
	for i := range in.shards {
		in.shards[i].m = make(map[FP]internEntry)
	}
	return in
}

// StringOf returns f.String(), computed at most once per unique
// formula for the lifetime of the table.
func (in *Interner) StringOf(f Formula) string {
	if in == nil {
		return f.String()
	}
	fp := Fingerprint(f)
	s := &in.shards[fp.Lo&(internShards-1)]
	s.mu.RLock()
	e, ok := s.m[fp]
	s.mu.RUnlock()
	if !ok {
		// Render outside the lock; a racing renderer of the same term
		// just does the same work and the first writer's entry wins.
		str := f.String()
		s.mu.Lock()
		if e, ok = s.m[fp]; !ok {
			s.m[fp] = internEntry{f: f, s: str}
		}
		s.mu.Unlock()
		if !ok {
			in.terms.Add(1)
			return str
		}
	}
	if !Equal(e.f, f) {
		return f.String() // a fingerprint collision: not this formula's text
	}
	in.hits.Add(1)
	return e.s
}

// Terms reports the number of unique terms interned so far.
func (in *Interner) Terms() int64 {
	if in == nil {
		return 0
	}
	return in.terms.Load()
}

// Hits reports how many StringOf calls were answered from the table.
func (in *Interner) Hits() int64 {
	if in == nil {
		return 0
	}
	return in.hits.Load()
}
