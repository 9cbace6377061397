package expr

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// genLin builds a random linear expression over a small variable pool.
func genLin(r *rand.Rand) LinExpr {
	vars := []Var{"x", "y", "z", "w0.%o0", "val.e"}
	e := Constant(int64(r.Intn(21) - 10))
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		e = e.Add(Term(int64(r.Intn(9)-4), vars[r.Intn(len(vars))]))
	}
	return e
}

func genAtom(r *rand.Rand) Atom {
	e := genLin(r)
	switch r.Intn(3) {
	case 0:
		return Atom{Kind: GE, E: e}
	case 1:
		return Atom{Kind: EQ, E: e}
	default:
		return Atom{Kind: DIV, M: int64(2 + r.Intn(7)), E: e}
	}
}

// genFormula builds a random formula of bounded depth, covering every
// constructor the fingerprint walks.
func genFormula(r *rand.Rand, depth int) Formula {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return TrueF{}
		case 1:
			return FalseF{}
		default:
			return AtomF{A: genAtom(r)}
		}
	}
	switch r.Intn(7) {
	case 0:
		return Not{F: genFormula(r, depth-1)}
	case 1, 2:
		fs := make([]Formula, 2+r.Intn(2))
		for i := range fs {
			fs[i] = genFormula(r, depth-1)
		}
		return And{Fs: fs}
	case 3, 4:
		fs := make([]Formula, 2+r.Intn(2))
		for i := range fs {
			fs[i] = genFormula(r, depth-1)
		}
		return Or{Fs: fs}
	case 5:
		return Impl{A: genFormula(r, depth-1), B: genFormula(r, depth-1)}
	default:
		v := Var([]string{"x", "y", "z"}[r.Intn(3)])
		if r.Intn(2) == 0 {
			return Forall{V: v, F: genFormula(r, depth-1)}
		}
		return Exists{V: v, F: genFormula(r, depth-1)}
	}
}

// TestFingerprintMatchesEqual checks the content-addressing contract on
// a random corpus: fingerprints agree exactly when Equal does. (The
// reverse direction holds only up to 128-bit collisions, which this
// corpus cannot plausibly produce — a disagreement is a bug.)
func TestFingerprintMatchesEqual(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 300
	fs := make([]Formula, n)
	for i := range fs {
		fs[i] = genFormula(r, 3)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			eq := Equal(fs[i], fs[j])
			fpEq := Fingerprint(fs[i]) == Fingerprint(fs[j])
			if eq != fpEq {
				t.Fatalf("formulas %d vs %d: Equal=%v but fingerprint-equal=%v\n%s\n%s",
					i, j, eq, fpEq, fs[i], fs[j])
			}
		}
	}
}

// TestSameVarPartMatchesVarPartFP checks that the verified relation and
// its fingerprint approximation agree on random expression pairs, in
// both the plain and negated forms.
func TestSameVarPartMatchesVarPartFP(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	var pool []LinExpr
	for i := 0; i < 200; i++ {
		pool = append(pool, genLin(r))
	}
	// Include exact copies and negations so the positive cases occur.
	for i := 0; i < 50; i++ {
		e := pool[r.Intn(200)]
		pool = append(pool, e.AddConst(int64(r.Intn(7))), e.Scale(-1))
	}
	for i := range pool {
		for j := range pool {
			for _, neg := range []bool{false, true} {
				rel := SameVarPart(pool[i], pool[j], neg)
				fp := VarPartFP(pool[i], false) == VarPartFP(pool[j], neg)
				if rel != fp {
					t.Fatalf("%q vs %q neg=%v: SameVarPart=%v fp-equal=%v",
						pool[i], pool[j], neg, rel, fp)
				}
			}
		}
	}
}

// TestClauseFPIncrementalIdentity checks that the walker's incremental
// chain (ClauseFPSeed / MixFP(AtomFP) / ClauseFPDone) computes exactly
// ClauseFP for every prefix length.
func TestClauseFPIncrementalIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		var c Clause
		fp := ClauseFPSeed()
		for len(c) < 8 {
			a := genAtom(r)
			c = append(c, a)
			fp = fp.MixFP(AtomFP(a))
			if got, want := fp.ClauseFPDone(len(c)), ClauseFP(c); got != want {
				t.Fatalf("trial %d len %d: incremental %v != ClauseFP %v", trial, len(c), got, want)
			}
		}
	}
}

// TestInternerPreservesString checks the core interning property: the
// interned string of every corpus formula is exactly f.String(), on
// first render and on every repeat, and the term/hit counters track
// unique formulas vs repeats.
func TestInternerPreservesString(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	in := NewInterner()
	var fs []Formula
	for i := 0; i < 400; i++ {
		fs = append(fs, genFormula(r, 3))
	}
	unique := make(map[FP]bool)
	for _, f := range fs {
		unique[Fingerprint(f)] = true
		if got, want := in.StringOf(f), f.String(); got != want {
			t.Fatalf("first render: StringOf=%q want %q", got, want)
		}
	}
	if in.Terms() != int64(len(unique)) {
		t.Fatalf("Terms=%d, want %d unique formulas", in.Terms(), len(unique))
	}
	hitsBefore := in.Hits()
	for _, f := range fs {
		if got, want := in.StringOf(f), f.String(); got != want {
			t.Fatalf("repeat render: StringOf=%q want %q", got, want)
		}
	}
	if in.Terms() != int64(len(unique)) {
		t.Fatalf("repeat pass interned new terms: %d, want %d", in.Terms(), len(unique))
	}
	if got := in.Hits() - hitsBefore; got != int64(len(fs)) {
		t.Fatalf("repeat pass hits=%d, want %d", got, len(fs))
	}
	// A nil interner degrades to plain stringification.
	var nilIn *Interner
	if got, want := nilIn.StringOf(fs[0]), fs[0].String(); got != want {
		t.Fatalf("nil interner: %q want %q", got, want)
	}
	if nilIn.Terms() != 0 || nilIn.Hits() != 0 {
		t.Fatal("nil interner reported nonzero counters")
	}
}

// TestInternerVerifiesHits: a fingerprint match is a hit only when the
// stored formula is the probe. Another formula's text planted under the
// probe's fingerprint must not be returned, and counts no hit.
func TestInternerVerifiesHits(t *testing.T) {
	probe := GeExpr(V("x"), Constant(1))
	other := GeExpr(V("y"), Constant(2))
	in := NewInterner()
	fp := Fingerprint(probe)
	in.shards[fp.Lo&(internShards-1)].m[fp] = internEntry{f: other, s: other.String()}
	for i := 0; i < 2; i++ {
		if got, want := in.StringOf(probe), probe.String(); got != want {
			t.Fatalf("StringOf = %q under a colliding entry, want %q", got, want)
		}
	}
	if in.Hits() != 0 {
		t.Errorf("a colliding entry counted %d hits", in.Hits())
	}
}

// TestInternerConcurrent hammers one intern table from many goroutines
// over an overlapping corpus — the shape of the Phase 5 worker pool
// under -parallel — and checks every returned string. Run with -race
// this is the interning race test.
func TestInternerConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var fs []Formula
	var want []string
	for i := 0; i < 200; i++ {
		f := genFormula(r, 3)
		fs = append(fs, f)
		want = append(want, f.String())
	}
	in := NewInterner()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				j := rr.Intn(len(fs))
				if got := in.StringOf(fs[j]); got != want[j] {
					errs <- fmt.Errorf("worker %d: formula %d: got %q want %q", seed, j, got, want[j])
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if in.Hits() == 0 {
		t.Fatal("concurrent interning never hit the table")
	}
}

// TestQuantFree pins the QuantFree fast-path predicate against the
// obvious recursive definition on the random corpus.
func TestQuantFree(t *testing.T) {
	var hasQuant func(f Formula) bool
	hasQuant = func(f Formula) bool {
		switch g := f.(type) {
		case Forall, Exists:
			return true
		case Not:
			return hasQuant(g.F)
		case And:
			for _, s := range g.Fs {
				if hasQuant(s) {
					return true
				}
			}
		case Or:
			for _, s := range g.Fs {
				if hasQuant(s) {
					return true
				}
			}
		case Impl:
			return hasQuant(g.A) || hasQuant(g.B)
		}
		return false
	}
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 500; i++ {
		f := genFormula(r, 3)
		if QuantFree(f) != !hasQuant(f) {
			t.Fatalf("QuantFree(%s)=%v, want %v", f, QuantFree(f), !hasQuant(f))
		}
	}
}
