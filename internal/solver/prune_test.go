package solver

import (
	"math/rand"
	"testing"

	"mcsafe/internal/expr"
)

// TestPruneQuantVacuousGuard: ∀v.(guard(v) -> P) with P independent of v
// and a satisfiable guard collapses to P.
func TestPruneQuantVacuousGuard(t *testing.T) {
	p := New()
	v := expr.Var("v")
	P := expr.GeExpr(expr.V("x"), expr.Constant(0))
	f := expr.Forall{V: v, F: expr.Implies(
		expr.LtExpr(expr.V(v), expr.V("y")), P)}
	got := p.PruneQuant(f)
	if got.String() != P.String() {
		t.Errorf("PruneQuant = %v, want %v", got, P)
	}
}

// TestPruneQuantDistributesOverAnd: ∀v.(A(v) ∧ B) keeps the quantifier
// only on the conjunct that mentions v.
func TestPruneQuantDistributesOverAnd(t *testing.T) {
	p := New()
	v := expr.Var("v")
	a := expr.GeExpr(expr.V(v), expr.Constant(0))
	b := expr.GeExpr(expr.V("x"), expr.Constant(1))
	f := expr.Forall{V: v, F: expr.Conj(a, b)}
	got := p.PruneQuant(f)
	// The x-conjunct must appear unquantified.
	free := map[expr.Var]bool{}
	got.FreeVars(free)
	if !free["x"] {
		t.Fatalf("PruneQuant lost the free conjunct: %v", got)
	}
	// And the result is still conjoined with a ∀ over the v-part.
	if _, isAnd := got.(expr.And); !isAnd {
		t.Errorf("expected a conjunction, got %T: %v", got, got)
	}
}

// TestPruneQuantStrengthensOnly: the pruned formula always implies...
// rather, the pruned formula must IMPLY the original is not guaranteed;
// the guarantee is the other way: pruned => original (sound
// strengthening). Verify by random evaluation.
func TestPruneQuantSoundDirection(t *testing.T) {
	p := New()
	r := rand.New(rand.NewSource(77))
	dom := []int64{-3, -2, -1, 0, 1, 2, 3}
	for i := 0; i < 500; i++ {
		// Build ∀v.(atom(v,x) -> atom2(x,y)) shapes randomly.
		v := expr.Var("v")
		guard := expr.Ge(expr.Term(int64(r.Intn(3)-1), v).
			Add(expr.Term(int64(r.Intn(3)-1), "x")).AddConst(int64(r.Intn(5) - 2)))
		body := expr.Ge(expr.Term(int64(r.Intn(3)-1), "x").
			Add(expr.Term(int64(r.Intn(3)-1), "y")).AddConst(int64(r.Intn(5) - 2)))
		f := expr.Forall{V: v, F: expr.Implies(guard, body)}
		g := p.PruneQuant(f)
		for j := 0; j < 50; j++ {
			env := map[expr.Var]int64{
				"x": int64(r.Intn(7) - 3),
				"y": int64(r.Intn(7) - 3),
			}
			if g.Eval(env, dom) && !f.Eval(env, dom) {
				t.Fatalf("PruneQuant weakened the formula:\n f=%v\n g=%v\n env=%v", f, g, env)
			}
		}
	}
}

// TestGeneralizeClausesSharpens: per-clause generalization yields the
// sharp single-atom facts that the whole-formula generalization washes
// out.
func TestGeneralizeClausesSharpens(t *testing.T) {
	p := New()
	g2 := expr.V("%g2")
	g4 := expr.V("%g4")
	// W = (2g2+1 < g4 -> g2 >= 0): ¬W = {2g2+1 < g4, g2 <= -1}.
	w := expr.Implies(expr.LtExpr(g2.Scale(2).AddConst(1), g4), expr.Ge(g2))
	// Eliminating g4 projects the clause onto g2 <= -1; its negation is
	// the sharp fact g2 >= 0.
	got := p.Generalize(w, [][]expr.Var{{"%g4"}})[0][1:]
	found := false
	for _, f := range got {
		if p.Valid(expr.Implies(f, expr.Ge(g2))) && p.Valid(expr.Implies(expr.Ge(g2), f)) {
			found = true
		}
	}
	if !found {
		t.Errorf("per-clause generalizations = %v, want one equivalent to g2 >= 0", got)
	}
}

// TestGeneralizeClausesAreStrengthenings: every candidate, the whole
// generalization and the per-clause ones, implies the original formula
// (they are strengthening candidates).
func TestGeneralizeClausesAreStrengthenings(t *testing.T) {
	p := New()
	r := rand.New(rand.NewSource(88))
	for i := 0; i < 300; i++ {
		a := expr.Ge(expr.Term(int64(r.Intn(3)-1), "x").
			Add(expr.Term(int64(r.Intn(3)-1), "y")).AddConst(int64(r.Intn(5) - 2)))
		b := expr.Ge(expr.Term(int64(r.Intn(3)-1), "x").
			Add(expr.Term(int64(r.Intn(3)-1), "z")).AddConst(int64(r.Intn(5) - 2)))
		w := expr.Implies(a, b)
		out := p.Generalize(w, [][]expr.Var{{"x"}})
		if out == nil {
			t.Fatalf("no generalization of %v", w)
		}
		for _, cand := range out[0] {
			for j := 0; j < 40; j++ {
				env := map[expr.Var]int64{
					"x": int64(r.Intn(9) - 4),
					"y": int64(r.Intn(9) - 4),
					"z": int64(r.Intn(9) - 4),
				}
				if cand.Eval(env, nil) && !w.Eval(env, nil) {
					t.Fatalf("candidate %v does not imply %v at %v", cand, w, env)
				}
			}
		}
	}
}

// TestGeneralizeClausesQuantified: quantified inputs go through QE first.
func TestGeneralizeClausesQuantified(t *testing.T) {
	p := New()
	v := expr.Var("v")
	w := expr.Forall{V: v, F: expr.Implies(
		expr.NeExpr(expr.V(v), expr.Constant(0)),
		expr.GeExpr(expr.V("x"), expr.Constant(0)))}
	out := p.Generalize(w, [][]expr.Var{nil})
	if out == nil || len(out[0]) < 2 {
		t.Fatal("quantified input should still generalize")
	}
}
