package solver

import (
	"math/rand"
	"testing"

	"mcsafe/internal/expr"
	"mcsafe/internal/faults"
)

func genLin(r *rand.Rand) expr.LinExpr {
	vars := []expr.Var{"x", "y", "z"}
	e := expr.Constant(int64(r.Intn(17) - 8))
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		e = e.Add(expr.Term(int64(r.Intn(7)-3), vars[r.Intn(len(vars))]))
	}
	return e
}

func genClause(r *rand.Rand) expr.Clause {
	c := make(expr.Clause, 0, 4)
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		e := genLin(r)
		switch r.Intn(4) {
		case 0:
			c = append(c, expr.Atom{Kind: expr.EQ, E: e})
		case 1:
			c = append(c, expr.Atom{Kind: expr.DIV, M: int64(2 + r.Intn(3)), E: e})
		default:
			c = append(c, expr.Atom{Kind: expr.GE, E: e})
		}
	}
	// Seed likely contradictions: duplicate an inequality negated with a
	// gap, so the fast scan has something to find.
	if r.Intn(2) == 0 {
		e := genLin(r)
		c = append(c,
			expr.Atom{Kind: expr.GE, E: e},
			expr.Atom{Kind: expr.GE, E: e.Scale(-1).AddConst(int64(-1 - r.Intn(3)))})
	}
	return c
}

// TestWalkerPruneMatchesOracle checks that the dnfWalker's incremental
// contradiction scan prunes exactly the clauses atomsUnsatFast (the
// one-shot reference oracle) rejects: walking a single-clause formula
// either prunes it (EarlyUnsatPrunes++) or completes it as a survivor,
// and which of the two happens must agree with the oracle.
func TestWalkerPruneMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var pruned, kept int
	for i := 0; i < 3000; i++ {
		c := genClause(r)
		want := atomsUnsatFast(c)
		p := New()
		w := dnfWalker{p: p}
		ok := w.walk(compileDNF(expr.ClauseFormula(c)), nil)
		if !ok || w.blowup || w.tripped {
			t.Fatalf("clause %d: walk failed (ok=%v blowup=%v tripped=%v)", i, ok, w.blowup, w.tripped)
		}
		got := p.Stats.EarlyUnsatPrunes == 1
		if got != want {
			t.Fatalf("clause %d: walker pruned=%v, oracle unsat=%v, clause %v", i, got, want, c)
		}
		if w.visits != 1 {
			t.Fatalf("clause %d: visits=%d, want 1", i, w.visits)
		}
		if got {
			pruned++
		} else {
			kept++
		}
	}
	t.Logf("%d clauses pruned, %d kept", pruned, kept)
	if pruned == 0 || kept == 0 {
		t.Fatal("corpus degenerated: both pruned and surviving clauses must occur")
	}
}

func genQF(r *rand.Rand, depth int) expr.Formula {
	if depth <= 0 {
		e := genLin(r)
		if r.Intn(4) == 0 {
			return expr.Eq(e)
		}
		return expr.Ge(e)
	}
	switch r.Intn(5) {
	case 0:
		fs := make([]expr.Formula, 2)
		for i := range fs {
			fs[i] = genQF(r, depth-1)
		}
		return expr.Conj(fs...)
	case 1, 2:
		fs := make([]expr.Formula, 2)
		for i := range fs {
			fs[i] = genQF(r, depth-1)
		}
		return expr.Disj(fs...)
	case 3:
		return expr.Implies(genQF(r, depth-1), genQF(r, depth-1))
	default:
		return expr.Negate(genQF(r, depth-1))
	}
}

// TestTwoPassWalkerMatchesMaterializedDNF compares the streaming
// two-pass walker against the old materializing decision procedure —
// expand the full DNF of ¬f, then eliminate clause by clause — on a
// random quantifier-free corpus. Whenever the materialized expansion
// fits its cap, the verdicts must be identical.
func TestTwoPassWalkerMatchesMaterializedDNF(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	var proved int
	for i := 0; i < 800; i++ {
		f := genQF(r, 3)

		oracle := New()
		neg, exact := oracle.qe(expr.NNF(expr.Negate(f)), true)
		if !exact {
			continue
		}
		clauses, err := expr.DNF(expr.NNF(neg))
		if err != nil {
			continue // materialized path blows up: walker may do better
		}
		want := true
		for _, c := range clauses {
			if !oracle.clauseUnsat(c) {
				want = false
				break
			}
		}

		p := New()
		if got := p.valid(f); got != want {
			t.Fatalf("formula %d: walker=%v materialized=%v\n%s", i, got, want, f)
		}
		if want {
			proved++
		}
	}
	t.Logf("%d formulas proved by both paths", proved)
	if proved == 0 {
		t.Fatal("corpus never produced a proved formula")
	}
}

// TestClauseMemoReplayIdentity checks the memo's accounting contract: a
// hit returns the memoized verdict, bumps FMPrefixReuses, and replays
// exactly the elimination count of the original run, so the effort
// counters are bit-identical to recomputing.
func TestClauseMemoReplayIdentity(t *testing.T) {
	x, y := expr.V(expr.Var("x")), expr.V(expr.Var("y"))
	// Needs genuine elimination: coupled inequalities with no unit
	// equality shortcut.
	c := expr.Clause{
		{Kind: expr.GE, E: expr.Term(3, "x").Sub(y)},
		{Kind: expr.GE, E: y.Sub(expr.Term(2, "x")).AddConst(-1)},
		{Kind: expr.GE, E: x.AddConst(-1)},
		{Kind: expr.GE, E: x.Scale(-1).AddConst(4)},
	}
	key := expr.ClauseFP(c)
	p := New()

	first := p.clauseUnsatMemo(key, c)
	elims := p.Stats.Eliminations
	if elims == 0 {
		t.Fatal("test clause did not exercise elimination")
	}
	if p.Stats.FMPrefixReuses != 0 {
		t.Fatal("first run must not count as a reuse")
	}

	second := p.clauseUnsatMemo(key, c)
	if second != first {
		t.Fatalf("memo flipped verdict: first=%v second=%v", first, second)
	}
	if p.Stats.FMPrefixReuses != 1 {
		t.Fatalf("FMPrefixReuses=%d, want 1", p.Stats.FMPrefixReuses)
	}
	if p.Stats.Eliminations != 2*elims {
		t.Fatalf("Eliminations=%d after replay, want %d (2x first run)", p.Stats.Eliminations, 2*elims)
	}

	// A same-fingerprint probe with a different clause must be treated
	// as a miss (verified hit policy), not answered from the memo.
	other := expr.Clause{{Kind: expr.GE, E: x}}
	before := p.Stats.FMPrefixReuses
	p.clauseUnsatMemo(key, other)
	if p.Stats.FMPrefixReuses != before {
		t.Fatal("colliding key with different clause was answered from the memo")
	}
}

// TestWalkScratchReuse: the walker's buffers live on the prover and are
// lent to every walk. One prover answering a corpus in sequence must
// agree with a fresh prover per query, and a walk cut short by a
// contained panic must leave nothing behind for the next one.
func TestWalkScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	shared := New()
	for i := 0; i < 500; i++ {
		f := expr.DNFFormula([]expr.Clause{genClause(r), genClause(r), genClause(r)})
		if got, want := shared.Valid(f), New().Valid(f); got != want {
			t.Fatalf("query %d: reused walker says valid=%v, fresh prover %v: %v", i, got, want, f)
		}
	}

	p := New()
	p.Valid(expr.Ge(expr.V("z"))) // a finished walk leaves the prover its bounds map
	// ¬f is x >= 5 ∧ y >= 0: the walk records both bounds, then its
	// first leaf takes the query's second solver step and panics there.
	f := expr.Disj(expr.Ge(expr.V("x").Scale(-1).AddConst(4)), expr.Ge(expr.V("y").Scale(-1).AddConst(-1)))
	restore := faults.Activate(faults.NewPlan(faults.Fault{Point: faults.SolverStep, Kind: faults.Panic, After: 2}))
	func() {
		defer func() {
			if _, ok := recover().(faults.InjectedPanic); !ok {
				t.Fatal("the walk did not stop at the injected panic")
			}
		}()
		p.Valid(f)
	}()
	restore()
	// A stale x >= 5 would refute ¬(x >= 3), i.e. x <= 2, and so prove
	// x >= 3 valid.
	if p.Valid(expr.Ge(expr.V("x").AddConst(-3))) {
		t.Fatal("x >= 3 proved valid after a contained panic: the walker kept the interrupted walk's bounds")
	}
}
