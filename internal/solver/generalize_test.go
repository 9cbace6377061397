package solver

import (
	"fmt"
	"math/rand"
	"testing"

	"mcsafe/internal/expr"
)

// The reference below is the generalization as three separate passes,
// each normalizing ¬W again for every variable set: refEliminate
// projects a formula, refGeneralize negates the projection of ¬W, and
// refGeneralizeClauses negates each clause's projection (capped at 64
// clauses). Generalize must return, for every set, exactly what the
// reference yields for it.

func refEliminate(p *Prover, f expr.Formula, vars []expr.Var) (expr.Formula, error) {
	qf, ok := p.qe(expr.NNF(f), true)
	if !ok {
		return nil, fmt.Errorf("solver: cannot eliminate quantifiers")
	}
	clauses, err := expr.DNF(qf)
	if err != nil {
		p.Stats.DNFBlowups++
		return nil, err
	}
	var out []expr.Formula
	for _, c := range clauses {
		cur := c
		for _, v := range vars {
			cur, _ = p.eliminateFromClause(cur, v, true)
		}
		out = append(out, expr.ClauseFormula(cur))
	}
	return expr.Simplify(expr.Disj(out...)), nil
}

func refGeneralize(p *Prover, f expr.Formula, vars []expr.Var) (expr.Formula, error) {
	elim, err := refEliminate(p, expr.NNF(expr.Negate(f)), vars)
	if err != nil {
		return nil, err
	}
	return expr.Simplify(expr.NNF(expr.Negate(elim))), nil
}

func refGeneralizeClauses(p *Prover, f expr.Formula, vars []expr.Var) []expr.Formula {
	qf, ok := p.qe(expr.NNF(expr.Negate(f)), true)
	if !ok {
		return nil
	}
	clauses, err := expr.DNFUpTo(qf, 64)
	if err != nil {
		return nil
	}
	var out []expr.Formula
	for _, c := range clauses {
		cur := c
		for _, v := range vars {
			cur, _ = p.eliminateFromClause(cur, v, true)
		}
		g := expr.Simplify(expr.NNF(expr.Negate(expr.ClauseFormula(cur))))
		switch g.(type) {
		case expr.TrueF, expr.FalseF:
			continue
		}
		out = append(out, g)
		if len(cur) > 1 {
			for _, a := range cur {
				na := expr.Simplify(expr.NNF(expr.Negate(expr.AtomF{A: a})))
				switch na.(type) {
				case expr.TrueF, expr.FalseF:
					continue
				}
				out = append(out, na)
			}
		}
	}
	return out
}

// refCandidates is what the induction search took from the reference
// for one set: the whole generalization, when there is one, then the
// per-clause ones.
func refCandidates(p *Prover, w expr.Formula, vars []expr.Var) []expr.Formula {
	var out []expr.Formula
	if g, err := refGeneralize(p, w, vars); err == nil {
		out = append(out, g)
	}
	return append(out, refGeneralizeClauses(p, w, vars)...)
}

// randSets draws 1–4 variable sets over x, y and z, each a random
// selection in random order (elimination order matters).
func randSets(r *rand.Rand) [][]expr.Var {
	sets := make([][]expr.Var, 1+r.Intn(4))
	for i := range sets {
		for _, j := range r.Perm(3)[:r.Intn(4)] {
			sets[i] = append(sets[i], []expr.Var{"x", "y", "z"}[j])
		}
	}
	return sets
}

// wideDisj is a disjunction of n two-atom conjunctions over x and y,
// so its negation's DNF has 2^n clauses.
func wideDisj(n int) expr.Formula {
	fs := make([]expr.Formula, n)
	for i := range fs {
		fs[i] = expr.Conj(
			expr.Ge(expr.V("x").AddConst(int64(i))),
			expr.Ge(expr.V("y").Scale(-1).AddConst(int64(2*i+1))))
	}
	return expr.Disj(fs...)
}

// TestGeneralizeMatchesReference: on random formulas (randFormulaS,
// genQF, and both wrapped in ∀ and ∃) with 1–4 random variable sets
// each, Generalize returns for every set the reference's list, equal
// under expr.Equal and in the same order, and nil exactly where the
// reference yields nothing. The corpus must exercise a qe failure, a
// ¬W over the 64-clause per-clause cap, and per-clause results.
func TestGeneralizeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var pairs, empty, wide, perClause int
	check := func(w expr.Formula, sets [][]expr.Var) {
		t.Helper()
		got := New().Generalize(w, sets)
		if got != nil && len(got) != len(sets) {
			t.Fatalf("Generalize(%v) returned %d lists for %d sets", w, len(got), len(sets))
		}
		ref := New()
		for i, vars := range sets {
			want := refCandidates(ref, w, vars)
			pairs++
			if len(want) == 0 {
				empty++
				if got != nil {
					t.Fatalf("W = %v, set %v: got %v, the reference yields nothing", w, vars, got[i])
				}
				continue
			}
			if got == nil {
				t.Fatalf("W = %v, set %v: got nil, want %v", w, vars, want)
			}
			if len(got[i]) != len(want) {
				t.Fatalf("W = %v, set %v: got %d formulas %v, want %d %v", w, vars, len(got[i]), got[i], len(want), want)
			}
			for k := range want {
				if !expr.Equal(got[i][k], want[k]) {
					t.Fatalf("W = %v, set %v, formula %d: got %v, want %v", w, vars, k, got[i][k], want[k])
				}
			}
			if len(want) > 1 {
				perClause++
			}
		}
	}

	quantify := func(f expr.Formula) expr.Formula {
		v := []expr.Var{"x", "y", "z"}[r.Intn(3)]
		if r.Intn(2) == 0 {
			return expr.Forall{V: v, F: f}
		}
		return expr.Exists{V: v, F: f}
	}
	const formulas = 3000
	for i := 0; i < formulas; i++ {
		var w expr.Formula
		switch i % 4 {
		case 0:
			w = randFormulaS(r, 3)
		case 1:
			w = genQF(r, 3)
		case 2:
			w = quantify(randFormulaS(r, 2))
		default:
			w = quantify(genQF(r, 2))
		}
		check(w, randSets(r))
	}

	// ¬W over the per-clause cap: 128 clauses give the whole
	// generalization only.
	w := wideDisj(7)
	check(w, [][]expr.Var{{"x"}, {"y"}, {"x", "y"}})
	for _, gens := range New().Generalize(w, [][]expr.Var{{"x"}, {"y"}}) {
		if len(gens) != 1 {
			t.Errorf("¬W has 128 clauses, yet %d formulas came back: %v", len(gens), gens)
		}
		wide++
	}
	// A qe failure: ¬∃v. 2 | v + x has no over-approximation, since
	// its ∀ needs an under-approximating elimination of v from a
	// divisibility atom.
	w = expr.Exists{V: "v", F: expr.Divides(2, expr.V("v").Add(expr.V("x")))}
	if _, ok := New().qe(expr.NNF(expr.Negate(w)), true); ok {
		t.Fatalf("qe of ¬%v succeeded; the fixture needs a qe failure", w)
	}
	check(w, [][]expr.Var{{"x"}, {"v"}})

	t.Logf("%d (formula, set) pairs: %d with no result, %d with per-clause results", pairs, empty, perClause)
	if pairs < formulas || empty == 0 || perClause == 0 || wide == 0 {
		t.Fatalf("corpus degenerated: %d pairs, %d empty, %d per-clause, %d wide", pairs, empty, perClause, wide)
	}
}

// TestGeneralizeDNFCapCountedOnce: a ¬W whose DNF exceeds the clause
// cap yields nil and counts one DNF blowup, however many sets were asked
// for.
func TestGeneralizeDNFCapCountedOnce(t *testing.T) {
	p := New()
	if out := p.Generalize(wideDisj(16), [][]expr.Var{{"x"}, {"y"}, {"x", "y"}}); out != nil {
		t.Fatalf("¬W has 2^16 clauses, yet Generalize returned %d lists", len(out))
	}
	if p.Stats.DNFBlowups != 1 {
		t.Errorf("DNFBlowups = %d, want 1", p.Stats.DNFBlowups)
	}
	if p.Stats.Eliminations != 0 {
		t.Errorf("Eliminations = %d, want 0: no clause should be projected", p.Stats.Eliminations)
	}
}

// TestGeneralizeSetsDoNotAlias: the formulas returned for one set are
// built from that set's own projections; projecting the same clauses
// for a later set leaves them as they were.
func TestGeneralizeSetsDoNotAlias(t *testing.T) {
	w := expr.Implies(
		expr.Conj(expr.Ge(expr.V("x")), expr.Ge(expr.V("y").AddConst(-1))),
		expr.GeExpr(expr.V("z"), expr.V("x").Add(expr.V("y"))))
	sets := [][]expr.Var{{"x"}, {"y"}, {"x", "y"}, {"z"}}
	all := New().Generalize(w, sets)
	for i, vars := range sets {
		alone := New().Generalize(w, [][]expr.Var{vars})
		if len(alone[0]) != len(all[i]) {
			t.Fatalf("set %v: %d formulas alone, %d among all sets", vars, len(alone[0]), len(all[i]))
		}
		for k := range alone[0] {
			if !expr.Equal(alone[0][k], all[i][k]) {
				t.Errorf("set %v, formula %d: %v alone, %v among all sets", vars, k, alone[0][k], all[i][k])
			}
		}
	}
}
