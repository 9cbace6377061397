package solver

import "mcsafe/internal/expr"

// PruneQuant simplifies quantified formulas produced by havoc
// substitutions during wlp generation:
//
//   - ∀ distributes over ∧ (and ∃ over ∨), keeping each quantifier only
//     where its variable occurs;
//   - ∀v.(A → B) with v ∉ B becomes (∃v.A) → B, and the hypothesis ∃v.A
//     is then eliminated by (over-approximating) quantifier elimination.
//
// An over-approximated hypothesis strengthens the overall formula, so
// the result always implies the input: sound wherever the formula is
// something to be proved or used as an inductive-chain member.
func (p *Prover) PruneQuant(f expr.Formula) expr.Formula {
	// Quantifier-free formulas (the common case once wlp substitution
	// has not introduced a havoc quantifier) have nothing to prune; the
	// recursive rebuild below would be the identity, so skip it with one
	// read-only walk.
	if expr.QuantFree(f) {
		return f
	}
	switch g := f.(type) {
	case expr.And:
		fs := make([]expr.Formula, len(g.Fs))
		for i, sub := range g.Fs {
			fs[i] = p.PruneQuant(sub)
		}
		return expr.Conj(fs...)
	case expr.Or:
		fs := make([]expr.Formula, len(g.Fs))
		for i, sub := range g.Fs {
			fs[i] = p.PruneQuant(sub)
		}
		return expr.Disj(fs...)
	case expr.Impl:
		return expr.Implies(p.pruneHyp(g.A), p.PruneQuant(g.B))
	case expr.Not:
		return expr.Negate(p.pruneHyp(g.F))
	case expr.Forall:
		body := p.PruneQuant(g.F)
		if !expr.Occurs(body, g.V) {
			return body
		}
		switch b := body.(type) {
		case expr.And:
			// ∀v.(f1 ∧ f2) = (∀v.f1) ∧ (∀v.f2).
			fs := make([]expr.Formula, len(b.Fs))
			for i, sub := range b.Fs {
				fs[i] = p.PruneQuant(expr.Forall{V: g.V, F: sub})
			}
			return expr.Conj(fs...)
		case expr.Impl:
			if !expr.Occurs(b.B, g.V) {
				// ∀v.(A → B) = (∃v.A) → B when v ∉ B.
				hyp := p.pruneHyp(expr.Exists{V: g.V, F: b.A})
				return expr.Implies(hyp, b.B)
			}
		}
		return expr.Forall{V: g.V, F: body}
	case expr.Exists:
		body := p.PruneQuant(g.F)
		if !expr.Occurs(body, g.V) {
			return body
		}
		return expr.Exists{V: g.V, F: body}
	}
	return f
}

// pruneHyp simplifies a formula in hypothesis (negative) position, where
// over-approximation (weakening the hypothesis is wrong; weakening here
// means making the hypothesis EASIER to satisfy, which strengthens the
// whole implication) is the sound direction. Existentials are eliminated
// by real-shadow QE.
func (p *Prover) pruneHyp(f expr.Formula) expr.Formula {
	switch g := f.(type) {
	case expr.Exists:
		body := p.pruneHyp(g.F)
		if !expr.Occurs(body, g.V) {
			return body
		}
		if q, ok := p.qe(expr.NNF(expr.Exists{V: g.V, F: body}), true); ok {
			return expr.Simplify(q)
		}
		return expr.Exists{V: g.V, F: body}
	case expr.And:
		fs := make([]expr.Formula, len(g.Fs))
		for i, sub := range g.Fs {
			fs[i] = p.pruneHyp(sub)
		}
		return expr.Conj(fs...)
	case expr.Or:
		fs := make([]expr.Formula, len(g.Fs))
		for i, sub := range g.Fs {
			fs[i] = p.pruneHyp(sub)
		}
		return expr.Disj(fs...)
	}
	// Deeper positions flip polarity again; keep them as-is (sound).
	return f
}
