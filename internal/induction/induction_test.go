package induction

import (
	"testing"

	"mcsafe/internal/expr"
	"mcsafe/internal/solver"
)

// TestSec522Trace replays the worked example of Section 5.2.2 through the
// synthesizer using hand-computed wlp hooks for the Figure 1 loop:
//
//	W(0) = %g3 < n
//	wlp(loop-body, W) = (%g3+1 < %o1 -> W[%g3 <- %g3+1])
//
// The raw W(1) is not invariant; generalization must produce %o1 <= n,
// after which W(0) ∧ W(1) => W(2) holds and the invariant is
// %g3 < n ∧ %o1 <= n.
func TestSec522Trace(t *testing.T) {
	p := solver.New()
	g3 := expr.Var("%g3")
	n := expr.V(expr.Var("n"))
	o1 := expr.V(expr.Var("%o1"))

	w0 := expr.LtExpr(expr.V(g3), n)
	body := func(w expr.Formula) expr.Formula {
		// One iteration: %g3' = %g3 + 1; the back edge is taken when
		// %g3' < %o1 (the bl at line 10); exits contribute true.
		wShift := expr.Subst(w, g3, expr.V(g3).AddConst(1))
		return expr.Implies(expr.LtExpr(expr.V(g3).AddConst(1), o1), wShift)
	}

	entryChecks := 0
	hooks := Hooks{
		W0:   w0,
		Next: func(back expr.Formula) expr.Formula { return body(back) },
		OnEntry: func(w expr.Formula) bool {
			entryChecks++
			// On entry: %g3 = 0, %o1 = n, n >= 1.
			init := expr.Conj(
				expr.EqExpr(expr.V(g3), expr.Constant(0)),
				expr.EqExpr(o1, n),
				expr.GeExpr(n, expr.Constant(1)),
			)
			return p.Implied(init, w)
		},
		ModifiedVars: []expr.Var{g3},
	}
	res, ok := Synthesize(p, hooks, Options{})
	if !ok {
		t.Fatal("synthesis failed on the paper's own example")
	}
	if entryChecks == 0 {
		t.Error("Inv.0 was never consulted")
	}
	// The invariant must imply the bound %g3 < n.
	if !p.Implied(res.Invariant, w0) {
		t.Errorf("invariant %v does not imply %v", res.Invariant, w0)
	}
	// And it must be inductive: Inv ∧ one-iteration => Inv step for
	// W(last).
	last := res.Chain[len(res.Chain)-1]
	if !p.Implied(expr.Conj(res.Chain...), body(last)) {
		t.Error("returned chain is not inductive")
	}
	// The chain needed more than W(0) alone (the raw W(1) is not
	// invariant without generalization).
	if len(res.Chain) < 2 {
		t.Errorf("chain = %v, expected at least two members", res.Chain)
	}
}

// Without generalization the 5.2.2 example must fail within the
// three-iteration budget: this is the ablation the paper motivates.
func TestSec522NeedsGeneralization(t *testing.T) {
	p := solver.New()
	g3 := expr.Var("%g3")
	n := expr.V(expr.Var("n"))
	o1 := expr.V(expr.Var("%o1"))

	w0 := expr.LtExpr(expr.V(g3), n)
	body := func(w expr.Formula) expr.Formula {
		wShift := expr.Subst(w, g3, expr.V(g3).AddConst(1))
		return expr.Implies(expr.LtExpr(expr.V(g3).AddConst(1), o1), wShift)
	}
	init := expr.Conj(
		expr.EqExpr(expr.V(g3), expr.Constant(0)),
		expr.EqExpr(o1, n),
		expr.GeExpr(n, expr.Constant(1)),
	)
	hooks := Hooks{
		W0:           w0,
		Next:         body,
		OnEntry:      func(w expr.Formula) bool { return p.Implied(init, w) },
		ModifiedVars: []expr.Var{g3},
	}
	_, ok := Synthesize(p, hooks, Options{DisableGeneralization: true, DisableDNF: true, MaxIter: 3})
	if ok {
		t.Fatal("expected failure without generalization (implication chains do not converge)")
	}
}

func TestTrivialTrueInvariant(t *testing.T) {
	p := solver.New()
	hooks := Hooks{
		W0:   expr.T(),
		Next: func(b expr.Formula) expr.Formula { return b },
	}
	res, ok := Synthesize(p, hooks, Options{})
	if !ok {
		t.Fatal("true should synthesize trivially")
	}
	if _, isTrue := res.Invariant.(expr.TrueF); !isTrue {
		t.Errorf("invariant = %v", res.Invariant)
	}
}

func TestAlreadyInvariant(t *testing.T) {
	// W(0) = x >= 0 with a body that does not change x: W(1) = W(0),
	// one round suffices.
	p := solver.New()
	w0 := expr.GeExpr(expr.V("x"), expr.Constant(0))
	hooks := Hooks{
		W0:      w0,
		Next:    func(b expr.Formula) expr.Formula { return b },
		OnEntry: func(w expr.Formula) bool { return true },
	}
	res, ok := Synthesize(p, hooks, Options{})
	if !ok {
		t.Fatal("self-invariant formula failed")
	}
	if len(res.Chain) != 1 {
		t.Errorf("chain = %v", res.Chain)
	}
}

func TestEntryFailureIsFatal(t *testing.T) {
	// Figure 7: if W(0) cannot be established on entry, FAILURE.
	p := solver.New()
	w0 := expr.GeExpr(expr.V("x"), expr.Constant(0))
	hooks := Hooks{
		W0:      w0,
		Next:    func(b expr.Formula) expr.Formula { return b },
		OnEntry: func(w expr.Formula) bool { return false },
	}
	if _, ok := Synthesize(p, hooks, Options{}); ok {
		t.Fatal("unprovable entry must fail")
	}
}

func TestIterationBoundRespected(t *testing.T) {
	// A body that keeps weakening W so no finite chain converges: the
	// search must terminate (bounded by MaxIter and the queue bound).
	p := solver.New()
	i := 0
	hooks := Hooks{
		W0: expr.GeExpr(expr.V("x"), expr.Constant(0)),
		Next: func(b expr.Formula) expr.Formula {
			i++
			// Fresh unrelated obligation each round.
			return expr.GeExpr(expr.V(expr.Var("y")), expr.Constant(int64(i)))
		},
		OnEntry:      func(w expr.Formula) bool { return false },
		ModifiedVars: []expr.Var{"x"},
	}
	if _, ok := Synthesize(p, hooks, Options{MaxIter: 3}); ok {
		t.Fatal("non-converging chain must fail")
	}
}

func TestDNFDisjunctCandidate(t *testing.T) {
	// wlp produces (x >= 0 ∨ y >= 5); only the disjunct x >= 0 is
	// invariant and entry-provable. The DNF enhancement finds it.
	p := solver.New()
	x := expr.V(expr.Var("x"))
	y := expr.V(expr.Var("y"))
	w0 := expr.GeExpr(x, expr.Constant(0))
	step := 0
	hooks := Hooks{
		W0: w0,
		Next: func(b expr.Formula) expr.Formula {
			step++
			if step == 1 {
				// Polluted candidate.
				return expr.Disj(expr.GeExpr(x, expr.Constant(0)), expr.GeExpr(y, expr.Constant(5)))
			}
			return b
		},
		OnEntry: func(w expr.Formula) bool {
			// Entry: x = 0, y unconstrained.
			return p.Implied(expr.EqExpr(x, expr.Constant(0)), w)
		},
		ModifiedVars: []expr.Var{"x"},
	}
	res, ok := Synthesize(p, hooks, Options{})
	if !ok {
		t.Fatal("DNF disjunct selection failed")
	}
	if !p.Implied(res.Invariant, w0) {
		t.Errorf("invariant %v too weak", res.Invariant)
	}
}

func TestStatsAccumulate(t *testing.T) {
	p := solver.New()
	g3 := expr.Var("g")
	w0 := expr.LtExpr(expr.V(g3), expr.V(expr.Var("n")))
	hooks := Hooks{
		W0: w0,
		Next: func(b expr.Formula) expr.Formula {
			return expr.Implies(expr.LtExpr(expr.V(g3).AddConst(1), expr.V(expr.Var("m"))),
				expr.Subst(b, g3, expr.V(g3).AddConst(1)))
		},
		ModifiedVars: []expr.Var{g3},
	}
	res, ok := Synthesize(p, hooks, Options{})
	if !ok {
		t.Fatal("synthesis failed")
	}
	if res.Stats.Iterations == 0 || res.Stats.Candidates == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}
