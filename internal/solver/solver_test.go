package solver

import (
	"math/rand"
	"testing"

	"mcsafe/internal/expr"
)

func v(name string) expr.LinExpr { return expr.V(expr.Var(name)) }

func TestValidBasics(t *testing.T) {
	p := New()
	cases := []struct {
		f    expr.Formula
		want bool
		name string
	}{
		{expr.T(), true, "true"},
		{expr.F(), false, "false"},
		{expr.Ge(expr.Constant(0)), true, "0>=0"},
		{expr.Ge(expr.Constant(-1)), false, "-1>=0"},
		{expr.Implies(expr.Ge(v("x")), expr.Ge(v("x"))), true, "x>=0 -> x>=0"},
		{expr.GeExpr(v("x"), v("x")), true, "x>=x"},
		{expr.Implies(expr.GtExpr(v("x"), v("y")), expr.GeExpr(v("x"), v("y"))), true, "x>y -> x>=y"},
		{expr.Implies(expr.GeExpr(v("x"), v("y")), expr.GtExpr(v("x"), v("y"))), false, "x>=y -> x>y"},
		{expr.Ge(v("x")), false, "x>=0 not valid"},
		// Transitivity.
		{expr.Implies(expr.Conj(expr.GeExpr(v("x"), v("y")), expr.GeExpr(v("y"), v("z"))),
			expr.GeExpr(v("x"), v("z"))), true, "transitivity"},
		// Integer reasoning: 2x = 1 has no integer solution.
		{expr.Negate(expr.Eq(v("x").Scale(2).AddConst(-1))), true, "2x=1 unsat"},
		// x < y -> x + 1 <= y over integers.
		{expr.Implies(expr.LtExpr(v("x"), v("y")), expr.LeExpr(v("x").AddConst(1), v("y"))), true, "integral gap"},
	}
	for _, c := range cases {
		if got := p.Valid(c.f); got != c.want {
			t.Errorf("%s: Valid(%v) = %v, want %v", c.name, c.f, got, c.want)
		}
	}
}

func TestValidPaperLoopInvariant(t *testing.T) {
	// The Section 5.2.2 derivation: invariant %g3 < n ∧ %o1 = n implies
	// the bound %g3 < n, and W(0)∧W(1) implies W(2) where W(1) = W(2) =
	// (%o1 = n) after generalization... here we check the key steps.
	p := New()
	g3, n, o1 := v("%g3"), v("n"), v("%o1")

	// Step: W(0) ∧ W(1) -> W(2) with W(0) = g3 < n, W(1) = W(2) = (o1 <= n).
	w0 := expr.LtExpr(g3, n)
	w1 := expr.LeExpr(o1, n)
	if !p.Valid(expr.Implies(expr.Conj(w0, w1), w1)) {
		t.Error("L(1) -> W(2) should be valid")
	}

	// Entry check: initial constraints n >= 1 ∧ n = %o1 ∧ %g3 = 0 imply
	// W(0) = %g3 < n and W(1) = %o1 <= n.
	init := expr.Conj(
		expr.GeExpr(n, expr.Constant(1)),
		expr.EqExpr(n, o1),
		expr.EqExpr(g3, expr.Constant(0)),
	)
	if !p.Valid(expr.Implies(init, w0)) {
		t.Error("init -> W(0) should be valid")
	}
	if !p.Valid(expr.Implies(init, w1)) {
		t.Error("init -> W(1) should be valid")
	}

	// Final goal: invariant implies the array bound 0 <= 4*g3 < 4n.
	inv := expr.Conj(expr.LtExpr(g3, n), expr.EqExpr(o1, n), expr.GeExpr(g3, expr.Constant(0)))
	bound := expr.Conj(
		expr.GeExpr(g3.Scale(4), expr.Constant(0)),
		expr.LtExpr(g3.Scale(4), n.Scale(4)),
	)
	if !p.Valid(expr.Implies(inv, bound)) {
		t.Error("invariant -> array bound should be valid")
	}
}

func TestAlignmentReasoning(t *testing.T) {
	p := New()
	base, i := v("base"), v("i")

	// 4 | base -> 4 | base + 4i.
	f := expr.Implies(expr.Divides(4, base), expr.Divides(4, base.Add(i.Scale(4))))
	if !p.Valid(f) {
		t.Error("4|base -> 4|(base+4i) should be valid")
	}

	// 4 | base does NOT imply 4 | base + i.
	g := expr.Implies(expr.Divides(4, base), expr.Divides(4, base.Add(i)))
	if p.Valid(g) {
		t.Error("4|base -> 4|(base+i) should NOT be valid")
	}

	// 4 | 4i unconditionally.
	if !p.Valid(expr.Divides(4, i.Scale(4))) {
		t.Error("4 | 4i should be valid")
	}

	// 2 | base ∧ 4 | base+2 -> ¬(4 | base).
	h := expr.Implies(
		expr.Conj(expr.Divides(2, base), expr.Divides(4, base.AddConst(2))),
		expr.Negate(expr.Divides(4, base)))
	if !p.Valid(h) {
		t.Error("congruence interplay should be provable")
	}

	// Mixed: 8 | base -> 4 | base (modulus refinement).
	if !p.Valid(expr.Implies(expr.Divides(8, base), expr.Divides(4, base))) {
		t.Error("8|base -> 4|base should be valid")
	}
}

func TestUnsat(t *testing.T) {
	p := New()
	x := v("x")
	cases := []struct {
		f    expr.Formula
		want bool
		name string
	}{
		{expr.Conj(expr.Ge(x.AddConst(-1)), expr.Ge(x.Scale(-1))), true, "x>=1 ∧ x<=0"},
		{expr.Conj(expr.Ge(x), expr.Ge(x.Scale(-1))), false, "x>=0 ∧ x<=0 sat (x=0)"},
		{expr.Conj(expr.Divides(4, x), expr.Divides(4, x.AddConst(-2))), true, "4|x ∧ 4|x-2"},
		{expr.Eq(x.Scale(2).AddConst(-1)), true, "2x=1"},
		{expr.Eq(x.Scale(2).AddConst(-4)), false, "2x=4 sat"},
	}
	for _, c := range cases {
		if got := p.Unsat(c.f); got != c.want {
			t.Errorf("%s: Unsat = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestQuantifiers(t *testing.T) {
	p := New()
	x, y := expr.Var("x"), expr.Var("y")

	// ∃x. x = y is valid.
	f := expr.Exists{V: x, F: expr.EqExpr(expr.V(x), expr.V(y))}
	if !p.Valid(f) {
		t.Error("∃x. x=y should be valid")
	}
	// ∀x. x >= 0 is not valid.
	g := expr.Forall{V: x, F: expr.Ge(expr.V(x))}
	if p.Valid(g) {
		t.Error("∀x. x>=0 should not be valid")
	}
	// ∀x. (x >= y -> x + 1 >= y) is valid.
	h := expr.Forall{V: x, F: expr.Implies(
		expr.GeExpr(expr.V(x), expr.V(y)),
		expr.GeExpr(expr.V(x).AddConst(1), expr.V(y)))}
	if !p.Valid(h) {
		t.Error("∀x. x>=y -> x+1>=y should be valid")
	}
	// ∃x. (x >= y ∧ x <= y) — pick x = y.
	k := expr.Exists{V: x, F: expr.Conj(
		expr.GeExpr(expr.V(x), expr.V(y)),
		expr.LeExpr(expr.V(x), expr.V(y)))}
	if !p.Valid(k) {
		t.Error("∃x. y<=x<=y should be valid")
	}
}

// eliminated is the elimination step of Generalize alone: the
// projection of f onto the variables outside vars, as the negation of
// the whole generalization of ¬f. ok is false when Generalize yields
// nothing.
func eliminated(p *Prover, f expr.Formula, vars []expr.Var) (expr.Formula, bool) {
	out := p.Generalize(expr.Negate(f), [][]expr.Var{vars})
	if out == nil {
		return nil, false
	}
	return expr.Negate(out[0][0]), true
}

func TestEliminate(t *testing.T) {
	p := New()
	g3, o1, n := expr.Var("%g3"), expr.Var("%o1"), expr.Var("n")

	// The paper's generalization example: from
	// %g3+1 < %o1 ∧ %g3+1 >= n, eliminating %g3 yields %o1 > n.
	f := expr.Conj(
		expr.LtExpr(expr.V(g3).AddConst(1), expr.V(o1)),
		expr.GeExpr(expr.V(g3).AddConst(1), expr.V(n)),
	)
	g, ok := eliminated(p, f, []expr.Var{g3})
	if !ok {
		t.Fatal("no elimination")
	}
	// g should be equivalent to %o1 > n, i.e. %o1 - n - 1 >= 0.
	want := expr.GtExpr(expr.V(o1), expr.V(n))
	if !p.Valid(expr.Conj(expr.Implies(g, want), expr.Implies(want, g))) {
		t.Errorf("elimination = %v, want equivalent of %v", g, want)
	}
}

func TestGeneralizePaperExample(t *testing.T) {
	// Section 5.2.2: W(1) = (%g3+1 < %o1 -> %g3+1 < n). Negating gives
	// %g3+1 < %o1 ∧ %g3+1 >= n; eliminating %g3 gives %o1 > n; negating
	// gives %o1 <= n. So Generalize(W(1), {%g3}) should be %o1 <= n.
	p := New()
	g3, o1, n := expr.Var("%g3"), expr.Var("%o1"), expr.Var("n")
	w1 := expr.Implies(
		expr.LtExpr(expr.V(g3).AddConst(1), expr.V(o1)),
		expr.LtExpr(expr.V(g3).AddConst(1), expr.V(n)))
	out := p.Generalize(w1, [][]expr.Var{{g3}})
	if out == nil {
		t.Fatal("no generalization")
	}
	g := out[0][0]
	want := expr.LeExpr(expr.V(o1), expr.V(n))
	if !p.Valid(expr.Conj(expr.Implies(g, want), expr.Implies(want, g))) {
		t.Errorf("Generalize = %v, want equivalent of %v", g, want)
	}
}

func TestProverCache(t *testing.T) {
	p := New()
	f := expr.GeExpr(v("x"), v("x"))
	p.Valid(f)
	before := p.Stats.CacheHits
	p.Valid(f)
	if p.Stats.CacheHits != before+1 {
		t.Error("second identical query should hit the cache")
	}
}

// --- Property tests: the prover never claims validity of a falsifiable
// formula, and never claims unsatisfiability of a satisfiable one. ---

func randAtomS(r *rand.Rand) expr.Formula {
	e := expr.Term(int64(r.Intn(5)-2), "x").
		Add(expr.Term(int64(r.Intn(5)-2), "y")).
		Add(expr.Term(int64(r.Intn(3)-1), "z")).
		AddConst(int64(r.Intn(9) - 4))
	switch r.Intn(4) {
	case 0, 1:
		return expr.Ge(e)
	case 2:
		return expr.Eq(e)
	default:
		return expr.Divides([]int64{2, 4}[r.Intn(2)], e)
	}
}

func randFormulaS(r *rand.Rand, depth int) expr.Formula {
	if depth == 0 {
		return randAtomS(r)
	}
	switch r.Intn(6) {
	case 0:
		return expr.Conj(randFormulaS(r, depth-1), randFormulaS(r, depth-1))
	case 1:
		return expr.Disj(randFormulaS(r, depth-1), randFormulaS(r, depth-1))
	case 2:
		return expr.Negate(randFormulaS(r, depth-1))
	case 3:
		return expr.Implies(randFormulaS(r, depth-1), randFormulaS(r, depth-1))
	default:
		return randAtomS(r)
	}
}

func TestValidSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	p := New()
	valids := 0
	for i := 0; i < 1500; i++ {
		f := randFormulaS(r, 2)
		if !p.Valid(f) {
			continue
		}
		valids++
		for j := 0; j < 200; j++ {
			env := map[expr.Var]int64{
				"x": int64(r.Intn(31) - 15),
				"y": int64(r.Intn(31) - 15),
				"z": int64(r.Intn(31) - 15),
			}
			if !f.Eval(env, nil) {
				t.Fatalf("Valid claimed but falsified:\n f=%v\n env=%v", f, env)
			}
		}
	}
	if valids == 0 {
		t.Error("property test never exercised a valid formula; generator too weak")
	}
}

func TestUnsatSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	p := New()
	unsats := 0
	for i := 0; i < 1500; i++ {
		f := randFormulaS(r, 2)
		if !p.Unsat(f) {
			continue
		}
		unsats++
		for j := 0; j < 200; j++ {
			env := map[expr.Var]int64{
				"x": int64(r.Intn(31) - 15),
				"y": int64(r.Intn(31) - 15),
				"z": int64(r.Intn(31) - 15),
			}
			if f.Eval(env, nil) {
				t.Fatalf("Unsat claimed but satisfied:\n f=%v\n env=%v", f, env)
			}
		}
	}
	if unsats == 0 {
		t.Error("property test never exercised an unsat formula; generator too weak")
	}
}

func TestEliminateIsOverApproximation(t *testing.T) {
	// Every model of f (projected) must satisfy the elimination of x.
	r := rand.New(rand.NewSource(321))
	p := New()
	for i := 0; i < 800; i++ {
		f := expr.Conj(randAtomS(r), randAtomS(r), randAtomS(r))
		g, ok := eliminated(p, f, []expr.Var{"x"})
		if !ok {
			continue
		}
		for j := 0; j < 100; j++ {
			env := map[expr.Var]int64{
				"x": int64(r.Intn(21) - 10),
				"y": int64(r.Intn(21) - 10),
				"z": int64(r.Intn(21) - 10),
			}
			if f.Eval(env, nil) && !g.Eval(env, nil) {
				t.Fatalf("elimination not an over-approximation:\n f=%v\n g=%v\n env=%v", f, g, env)
			}
		}
	}
}
