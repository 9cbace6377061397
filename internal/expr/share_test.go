package expr

import (
	"math/rand"
	"testing"
)

// shareCorpus is the genFormula corpus the sharing tests run over. Its
// quantifiers bind x, y and z, which also occur free, so ∀/∃ shadow
// free occurrences and each other.
func shareCorpus(seed int64, n int) []Formula {
	r := rand.New(rand.NewSource(seed))
	fs := make([]Formula, n)
	for i := range fs {
		fs[i] = genFormula(r, 1+i%4)
	}
	return fs
}

// shareVars is the variable pool of genLin plus one variable that occurs
// nowhere.
var shareVars = []Var{"x", "y", "z", "w0.%o0", "val.e", "absent"}

func sameResult(t *testing.T, what string, in, got, want Formula) {
	t.Helper()
	if !Equal(got, want) || Fingerprint(got) != Fingerprint(want) {
		t.Fatalf("%s of %v:\n got  %v\n want %v", what, in, got, want)
	}
}

// simplified returns Simplify's fixed point for f. One pass is not
// always enough: normalizing a divisibility atom can leave a constant
// (2 | 2x becomes 2 | 0) that only the next pass folds.
func simplified(t *testing.T, f Formula) Formula {
	t.Helper()
	for i := 0; i < 4; i++ {
		g, changed := simplify(f)
		if !changed {
			return f
		}
		f = g
	}
	t.Fatalf("Simplify reached no fixed point from %v", f)
	return nil
}

// TestSimplifyMatchesReference checks that the sharing Simplify returns
// exactly what the copying one did, on the corpus and on the results
// of simplifying it, and that it reports "unchanged" only when its
// result is its input.
func TestSimplifyMatchesReference(t *testing.T) {
	for _, f := range shareCorpus(21, 3000) {
		for _, in := range []Formula{f, Simplify(f)} {
			got, changed := simplify(in)
			sameResult(t, "Simplify", in, got, refSimplify(in))
			if !changed && !Equal(got, in) {
				t.Fatalf("Simplify(%v) reported unchanged but returned %v", in, got)
			}
		}
		simplified(t, f)
	}
}

// TestSimplifyWideConjunctions covers conjunctions and disjunctions past
// fpInline entries, where the dedup and subsumption tables switch from
// their fixed arrays to maps, with repeated atoms, shared linear parts
// and opposite bounds mixed in.
func TestSimplifyWideConjunctions(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + r.Intn(40)
		var pool []Formula
		fs := make([]Formula, n)
		for i := range fs {
			switch {
			case len(pool) > 0 && r.Intn(4) == 0:
				fs[i] = pool[r.Intn(len(pool))] // exact repeat
			case len(pool) > 0 && r.Intn(4) == 0:
				// Same linear part with another constant, or its
				// opposite: subsumption and contradiction candidates.
				if a, ok := pool[r.Intn(len(pool))].(AtomF); ok {
					e := a.A.E
					if r.Intn(2) == 0 {
						e = e.Scale(-1)
					}
					fs[i] = Ge(e.AddConst(int64(r.Intn(5) - 2)))
				} else {
					fs[i] = genFormula(r, 1)
				}
			default:
				fs[i] = genFormula(r, r.Intn(2))
			}
			pool = append(pool, fs[i])
		}
		for _, f := range []Formula{And{Fs: fs}, Or{Fs: fs}} {
			sameResult(t, "Simplify", f, Simplify(f), refSimplify(f))
			s := simplified(t, f)
			sameResult(t, "Simplify", s, Simplify(s), refSimplify(s))
		}
	}
}

// TestSubstMatchesReference checks Subst and SubstAll against their
// copying references for every pool variable (free, bound, shadowed,
// absent), and that an unchanged result is the input itself.
func TestSubstMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, f := range shareCorpus(24, 1500) {
		for _, v := range shareVars {
			repl := genLin(r)
			got, changed := subst(f, v, repl)
			sameResult(t, "Subst "+string(v), f, got, refSubst(f, v, repl))
			if changed == !Occurs(f, v) {
				t.Fatalf("Subst %s of %v: changed=%v but Occurs=%v", v, f, changed, Occurs(f, v))
			}
		}
		// A parallel substitution over a random subset, images drawn
		// over the same variables (so a swap is among them).
		sub := map[Var]LinExpr{}
		for _, v := range shareVars {
			if r.Intn(2) == 0 {
				sub[v] = genLin(r)
			}
		}
		sameResult(t, "SubstAll", f, SubstAll(f, sub), refSubstAll(f, sub))
	}
}

// TestOccursMatchesFreeVars checks Occurs against FreeVarsOf, whose
// quantifier cases now restore the bound variable's entry instead of
// collecting the body into a map of its own.
func TestOccursMatchesFreeVars(t *testing.T) {
	for _, f := range shareCorpus(25, 3000) {
		free := map[Var]bool{}
		for _, v := range FreeVarsOf(f) {
			free[v] = true
		}
		for _, v := range shareVars {
			if Occurs(f, v) != free[v] {
				t.Fatalf("Occurs(%v, %s) = %v, FreeVarsOf = %v", f, v, Occurs(f, v), FreeVarsOf(f))
			}
		}
	}
	// A variable free beside a quantifier that binds it stays free.
	f := Conj(Ge(V("x")), Forall{V: "x", F: Ge(V("x").Add(V("y")))})
	if vs := FreeVarsOf(f); len(vs) != 2 || vs[0] != "x" || vs[1] != "y" {
		t.Fatalf("FreeVarsOf = %v, want [x y]", vs)
	}
	g := Conj(Forall{V: "x", F: Ge(V("x"))}, Ge(V("x")))
	if !Occurs(g, "x") {
		t.Fatal("x free after its binder should occur")
	}
}

// TestConjDisjMatchReference checks the presized Conj and Disj against
// the appending ones on argument lists that mix constants, nils, nested
// connectives and plain formulas.
func TestConjDisjMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	pick := func() Formula {
		switch r.Intn(8) {
		case 0:
			return nil
		case 1:
			return TrueF{}
		case 2:
			return FalseF{}
		case 3:
			return And{Fs: []Formula{AtomF{A: genAtom(r)}, AtomF{A: genAtom(r)}}}
		case 4:
			return Or{Fs: []Formula{AtomF{A: genAtom(r)}}}
		default:
			return genFormula(r, 1)
		}
	}
	for trial := 0; trial < 5000; trial++ {
		fs := make([]Formula, r.Intn(5))
		for i := range fs {
			fs[i] = pick()
		}
		got, want := Conj(fs...), refConj(fs...)
		if (got == nil) != (want == nil) || (got != nil && !Equal(got, want)) {
			t.Fatalf("Conj(%v) = %v, want %v", fs, got, want)
		}
		got, want = Disj(fs...), refDisj(fs...)
		if (got == nil) != (want == nil) || (got != nil && !Equal(got, want)) {
			t.Fatalf("Disj(%v) = %v, want %v", fs, got, want)
		}
	}
}

// TestSharingAllocatesNothing pins the point of the sharing rewriters:
// simplifying a formula at Simplify's fixed point, substituting a
// variable that does not occur, and asking Occurs allocate nothing.
func TestSharingAllocatesNothing(t *testing.T) {
	corpus := shareCorpus(27, 400)
	fixed := make([]Formula, len(corpus))
	for i, f := range corpus {
		fixed[i] = simplified(t, f)
	}
	repl := V("y").AddConst(1)
	sub := map[Var]LinExpr{"absent": repl, "other": repl}
	cases := []struct {
		name string
		fn   func()
	}{
		{"Simplify at its fixed point", func() {
			for _, f := range fixed {
				Simplify(f)
			}
		}},
		{"Subst of an absent variable", func() {
			for _, f := range corpus {
				Subst(f, "absent", repl)
			}
		}},
		{"SubstAll of absent variables", func() {
			for _, f := range corpus {
				SubstAll(f, sub)
			}
		}},
		{"Occurs", func() {
			for _, f := range corpus {
				Occurs(f, "x")
				Occurs(f, "absent")
			}
		}},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(5, c.fn); n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", c.name, n)
		}
	}
}
