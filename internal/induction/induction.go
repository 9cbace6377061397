// Package induction implements the induction-iteration method of Suzuki
// and Ishihata for synthesizing loop invariants (Section 5.2.1 and
// Figure 7 of the paper), extended with the paper's enhancements:
//
//   - trying the disjuncts of the DNF of wlp(loop-body, W(i-1)) as W(i)
//     when conditionals in the loop pollute the candidate;
//   - generalization ¬(elimination(¬f)) via Fourier-Motzkin elimination
//     of loop-modified variables;
//   - breadth-first exploration of ranked candidates rather than
//     depth-first iteration;
//   - a small iteration bound (the paper observes three iterations
//     suffice in practice).
//
// The package is decoupled from the verification engine through the
// Hooks interface: the engine supplies W(0) and the wlp of the loop body
// as a function of the back-edge continuation formula.
package induction

import (
	"sort"

	"mcsafe/internal/expr"
	"mcsafe/internal/solver"
)

// Hooks supplies the loop-specific machinery.
type Hooks struct {
	// W0 is W(0): the back-substitution of the target condition to the
	// loop entry, with true as the contribution of the back edges
	// (Figure 7 line 2).
	W0 expr.Formula
	// Next computes wlp(loop-body, back): one full trip around the
	// loop establishing the given formula at the header again.
	Next func(back expr.Formula) expr.Formula
	// OnEntry is the Inv.0 test: whether the formula can be shown to
	// hold on entry to the loop. A nil hook defers the entry check to
	// the caller (the conjunction is then required at loop entry).
	OnEntry func(w expr.Formula) bool
	// ModifiedVars are the variables assigned inside the loop body;
	// generalization eliminates (subsets of) them.
	ModifiedVars []expr.Var
}

// maxQueue bounds the breadth-first queue of candidate chains.
const maxQueue = 64

// Options bound the search.
type Options struct {
	MaxIter int // maximum chain length (default 3)
	// DisableGeneralization and DisableDNF switch off the respective
	// enhancements (used by the ablation benchmarks).
	DisableGeneralization bool
	DisableDNF            bool
}

// Stats reports search effort.
type Stats struct {
	Iterations int // candidate chains examined
	Candidates int // candidate formulas generated
}

// Result of a synthesis run.
type Result struct {
	// Invariant is the conjunction L(j) = W(0) ∧ ... ∧ W(j); it is a
	// loop invariant (Inv.1 established) and, when Hooks.OnEntry was
	// provided, holds on entry.
	Invariant expr.Formula
	// Chain is the underlying W(i) sequence.
	Chain []expr.Formula
	Stats Stats
}

// Synthesize runs the extended induction-iteration algorithm. It returns
// the invariant and true on success.
func Synthesize(p *solver.Prover, h Hooks, opts Options) (*Result, bool) {
	if opts.MaxIter <= 0 {
		opts.MaxIter = 3
	}
	res := &Result{}

	w0 := expr.Simplify(h.W0)
	if _, isTrue := w0.(expr.TrueF); isTrue {
		res.Invariant = w0
		res.Chain = []expr.Formula{w0}
		return res, true
	}
	// A valid W(0) holds at the header in every state: the condition is
	// established by the current iteration's own guards, and no
	// invariant is needed (e.g. a null test immediately dominating the
	// dereference).
	if p.Valid(w0) {
		res.Invariant = expr.T()
		res.Chain = []expr.Formula{w0}
		return res, true
	}
	if h.OnEntry != nil && !h.OnEntry(w0) {
		// Inv.0(-1) in Figure 7: if W(0) cannot be established on
		// entry, the condition is unprovable.
		return res, false
	}

	type chain struct {
		ws []expr.Formula
	}
	queue := []chain{{ws: []expr.Formula{w0}}}

	for len(queue) > 0 {
		if p.Stopped() {
			// Resource envelope exhausted (or cancelled) mid-search:
			// abandon the synthesis conservatively.
			break
		}
		c := queue[0]
		queue = queue[1:]
		res.Stats.Iterations++

		conj := expr.Conj(c.ws...)
		// Inv.1(j): L(j) -> wlp(loop-body, L(j)) establishes that L(j)
		// is a loop invariant. (wlp is conjunctive, so one pass with
		// the whole conjunction as the back-edge formula covers every
		// chain member; this also licenses candidates that do not come
		// from the literal W-chain, such as generalizations.)
		wNext := expr.Simplify(h.Next(conj))
		if p.Valid(wNext) || p.Implied(conj, wNext) {
			res.Invariant = expr.Simplify(conj)
			res.Chain = c.ws
			return res, true
		}
		if len(c.ws) >= opts.MaxIter {
			continue
		}

		// Generate ranked candidates for W(j+1): the raw wlp, its DNF
		// disjuncts, and generalizations.
		cands := candidates(p, wNext, h.ModifiedVars, h.OnEntry != nil, opts)
		res.Stats.Candidates += len(cands)
		var passing []expr.Formula
		for _, cand := range cands {
			if h.OnEntry != nil && !h.OnEntry(cand) {
				continue // Inv.0(i) fails for this candidate
			}
			passing = append(passing, cand)
		}
		// Greedy conjunction first: an invariant often combines facts
		// from several generalizations (e.g. the induction variable's
		// lower bound AND the loop limit's upper bound); the conjunction
		// of entry-established candidates is itself entry-established.
		// Only with an entry check: without one, conjoining unfiltered
		// candidates manufactures junk-strong "invariants".
		if h.OnEntry != nil && len(passing) > 1 {
			passing = append([]expr.Formula{expr.Simplify(expr.Conj(passing...))}, passing...)
		}
		for _, cand := range passing {
			next := append(append([]expr.Formula(nil), c.ws...), cand)
			queue = append(queue, chain{ws: next})
			if len(queue) >= maxQueue {
				break // keep draining what we have, but add no more
			}
		}
	}
	return res, false
}

// candidates produces the ranked candidate list for the next W(i).
// broad widens the generalization variable sets; it is enabled only when
// an entry check (Inv.0) is available to prune over-strong junk.
func candidates(p *solver.Prover, wNext expr.Formula, modified []expr.Var, broad bool, opts Options) []expr.Formula {
	// out is the first tier of candidates, tier2 the second (see the
	// per-clause generalizations below).
	var out, tier2 []expr.Formula
	// Candidates are deduplicated by structural fingerprint (verified
	// on match) instead of canonical string: candidate generation is a
	// hot loop and the strings were built only to be map keys.
	seen := map[expr.FP]expr.Formula{}
	add := func(to *[]expr.Formula, f expr.Formula) {
		f = expr.Simplify(f)
		switch f.(type) {
		case expr.TrueF, expr.FalseF:
			return
		}
		key := expr.Fingerprint(f)
		if prev, ok := seen[key]; ok {
			if expr.Equal(prev, f) {
				return
			}
		} else {
			seen[key] = f
		}
		*to = append(*to, f)
	}
	add(&out, wNext)

	// Generalization: ¬(eliminate(¬W)) for each modified variable that
	// actually occurs, for all of them together, and — since facts about
	// unmodified values (base-pointer alignment, non-nullness) pollute
	// ¬W — for the modified set extended by each remaining free variable
	// in turn. Each resulting generalization is tried (Section 5.2.1:
	// "if there are several resulting generalizations, then each of them
	// in turn is chosen").
	if !opts.DisableGeneralization {
		free := map[expr.Var]bool{}
		wNext.FreeVars(free)
		var present, others []expr.Var
		for _, v := range modified {
			if free[v] {
				present = append(present, v)
				delete(free, v)
			}
		}
		// Without an entry check, the extension set is limited to
		// variables constrained by divisibility atoms (pointer-alignment
		// facts): eliminating arbitrary unmodified inputs (array bounds,
		// loop limits) manufactures junk invariants that nothing would
		// filter. With Inv.0 available, any free variable may be tried.
		divVars := map[expr.Var]bool{}
		collectDivVars(wNext, divVars)
		for v := range free {
			if broad || divVars[v] {
				others = append(others, v)
			}
		}
		sort.Slice(others, func(i, j int) bool { return others[i] < others[j] })
		var sets [][]expr.Var
		for _, v := range present {
			sets = append(sets, []expr.Var{v})
		}
		// "Present minus one" sets: eliminate every modified variable
		// except one, so a fact about a variable whose value was
		// established before this loop (e.g. a position counter advanced
		// by an earlier phase) survives as a candidate.
		if len(present) > 2 {
			for i := range present {
				rest := make([]expr.Var, 0, len(present)-1)
				rest = append(rest, present[:i]...)
				rest = append(rest, present[i+1:]...)
				sets = append(sets, rest)
			}
		}
		if len(present) > 1 {
			sets = append(sets, present)
		}
		for _, v := range others {
			sets = append(sets, append(append([]expr.Var{}, present...), v))
			// Also eliminate the unmodified variable alone, keeping the
			// loop-modified ones: this projects out a limit or bound
			// variable while preserving the induction variable (needed
			// when the invariant relates the induction variable to a
			// constant, e.g. j >= 0 in a doubling sift-down loop).
			sets = append(sets, []expr.Var{v})
		}
		if len(others) > 1 {
			// All unmodified variables at once: what remains is a pure
			// fact about the induction variables.
			sets = append(sets, others)
		}
		// Each set yields its whole generalization, then the per-clause
		// ones. A clause of ¬W whose projection is trivial must not wash
		// out the others. With an entry check the per-clause ones rank
		// alongside the rest; without one they form a second tier, tried
		// only after the conservative candidates fail (they can be
		// over-strong, and nothing else filters them).
		perClause := &tier2
		if broad {
			perClause = &out
		}
		for _, gens := range p.Generalize(wNext, sets) {
			add(&out, gens[0])
			for _, g := range gens[1:] {
				add(perClause, g)
			}
		}
	}

	// DNF disjuncts of the candidate: certain conditionals in a loop
	// weaken W(i) so much that it cannot become invariant; trying each
	// disjunct in turn strengthens it (Section 5.2.1).
	if !opts.DisableDNF {
		// Only expansions of at most 8 clauses are usable, so cap the
		// conversion there: a wider candidate would be discarded anyway,
		// and this skips materializing (possibly enormous) expansions
		// that exist only to be measured. An over-cap bail-out here is a
		// deliberate search-policy cut, not a prover blowup, so it is
		// not counted in DNFBlowups.
		clauses, err := expr.DNFUpTo(wNext, 8)
		if err == nil && len(clauses) > 1 {
			for _, cl := range clauses {
				add(&out, expr.ClauseFormula(cl))
			}
		}
	}

	// Rank by size: smaller candidates first (the paper's "simple
	// heuristic" with breadth-first testing), and keep only the best
	// few — entry checks and invariance tests are whole-program proofs,
	// so an unbounded candidate list is a time sink.
	const maxCandidates = 16
	rank := func(fs []expr.Formula) []expr.Formula {
		sort.SliceStable(fs, func(i, j int) bool {
			return expr.Size(fs[i]) < expr.Size(fs[j])
		})
		if len(fs) > maxCandidates {
			fs = fs[:maxCandidates]
		}
		return fs
	}
	out = rank(out)
	if len(tier2) > 0 {
		out = append(out, rank(tier2)...)
	}
	return out
}

// collectDivVars gathers variables occurring in divisibility atoms.
func collectDivVars(f expr.Formula, out map[expr.Var]bool) {
	switch g := f.(type) {
	case expr.AtomF:
		if g.A.Kind == expr.DIV {
			for _, t := range g.A.E.Terms() {
				out[t.V] = true
			}
		}
	case expr.Not:
		collectDivVars(g.F, out)
	case expr.And:
		for _, sub := range g.Fs {
			collectDivVars(sub, out)
		}
	case expr.Or:
		for _, sub := range g.Fs {
			collectDivVars(sub, out)
		}
	case expr.Impl:
		collectDivVars(g.A, out)
		collectDivVars(g.B, out)
	case expr.Forall:
		collectDivVars(g.F, out)
	case expr.Exists:
		collectDivVars(g.F, out)
	}
}
