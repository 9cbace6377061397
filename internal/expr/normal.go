package expr

import (
	"fmt"
)

// ErrTooLarge is returned when normalization would blow up past the
// configured size budget (the paper controls formula size by simplifying
// at junction points; we additionally refuse pathological inputs).
var ErrTooLarge = fmt.Errorf("expr: formula too large to normalize")

// MaxDNFClauses bounds the number of conjunctive clauses DNF will produce.
const MaxDNFClauses = 32768

// NNF converts f to negation normal form: negations are pushed inward and
// applied to atoms, which are rewritten into positive atoms:
//
//	¬(e >= 0)  =>  -e - 1 >= 0
//	¬(e = 0)   =>  e - 1 >= 0  ∨  -e - 1 >= 0
//	¬(m | e)   =>  ∨_{r=1..m-1} m | (e - r)
//
// Implications are expanded. Quantifiers flip under negation.
func NNF(f Formula) Formula {
	// The prover re-normalizes formulas that are already in NNF (its
	// quantifier elimination preserves the form); skip the rebuild with
	// one read-only walk, like QuantFree does for qe itself.
	if isNNF(f) {
		return f
	}
	return nnf(f, false)
}

// isNNF reports whether f is already negation-free: nnf eliminates
// every Not (negations fold into atoms) and every Impl, so their
// absence means nnf would be the identity.
func isNNF(f Formula) bool {
	switch g := f.(type) {
	case Not, Impl:
		return false
	case And:
		for _, s := range g.Fs {
			if !isNNF(s) {
				return false
			}
		}
	case Or:
		for _, s := range g.Fs {
			if !isNNF(s) {
				return false
			}
		}
	case Forall:
		return isNNF(g.F)
	case Exists:
		return isNNF(g.F)
	}
	return true
}

func nnf(f Formula, neg bool) Formula {
	switch g := f.(type) {
	case TrueF:
		if neg {
			return FalseF{}
		}
		return g
	case FalseF:
		if neg {
			return TrueF{}
		}
		return g
	case AtomF:
		if !neg {
			return g
		}
		return negateAtom(g.A)
	case Not:
		return nnf(g.F, !neg)
	case And:
		fs := make([]Formula, len(g.Fs))
		for i, sub := range g.Fs {
			fs[i] = nnf(sub, neg)
		}
		if neg {
			return Disj(fs...)
		}
		return Conj(fs...)
	case Or:
		fs := make([]Formula, len(g.Fs))
		for i, sub := range g.Fs {
			fs[i] = nnf(sub, neg)
		}
		if neg {
			return Conj(fs...)
		}
		return Disj(fs...)
	case Impl:
		// A -> B  ==  ¬A ∨ B
		if neg {
			return Conj(nnf(g.A, false), nnf(g.B, true))
		}
		return Disj(nnf(g.A, true), nnf(g.B, false))
	case Forall:
		if neg {
			return Exists{V: g.V, F: nnf(g.F, true)}
		}
		return Forall{V: g.V, F: nnf(g.F, false)}
	case Exists:
		if neg {
			return Forall{V: g.V, F: nnf(g.F, true)}
		}
		return Exists{V: g.V, F: nnf(g.F, false)}
	}
	return f
}

func negateAtom(a Atom) Formula {
	switch a.Kind {
	case GE:
		return Ge(a.E.Scale(-1).AddConst(-1))
	case EQ:
		return Disj(Ge(a.E.AddConst(-1)), Ge(a.E.Scale(-1).AddConst(-1)))
	case DIV:
		m := a.M
		if m < 0 {
			m = -m
		}
		if m == 0 {
			return negateAtom(Atom{Kind: EQ, E: a.E})
		}
		var fs []Formula
		for r := int64(1); r < m; r++ {
			fs = append(fs, Divides(m, a.E.AddConst(-r)))
		}
		return Disj(fs...)
	}
	return FalseF{}
}

// Clause is a conjunction of atoms.
type Clause []Atom

// DNF converts a quantifier-free formula to disjunctive normal form: a
// disjunction of conjunctions of positive atoms. It returns ErrTooLarge if
// the result would exceed MaxDNFClauses clauses. The formula "false" is
// the empty disjunction; "true" is one empty clause.
func DNF(f Formula) ([]Clause, error) {
	return dnf(NNF(f), MaxDNFClauses)
}

// DNFUpTo is DNF with a caller-chosen clause cap. Callers that only
// want the expansion when it is small (candidate generation keeps at
// most a handful of disjuncts) pass a small cap so an oversized
// expansion costs one early bail-out instead of a full materialization
// it would then throw away.
func DNFUpTo(f Formula, maxClauses int) ([]Clause, error) {
	return dnf(NNF(f), maxClauses)
}

func dnf(f Formula, maxClauses int) ([]Clause, error) {
	switch g := f.(type) {
	case TrueF:
		return []Clause{{}}, nil
	case FalseF:
		return nil, nil
	case AtomF:
		return []Clause{{g.A}}, nil
	case Or:
		var out []Clause
		for _, sub := range g.Fs {
			cs, err := dnf(sub, maxClauses)
			if err != nil {
				return nil, err
			}
			out = append(out, cs...)
			if len(out) > maxClauses {
				return nil, ErrTooLarge
			}
		}
		return out, nil
	case And:
		out := []Clause{{}}
		for _, sub := range g.Fs {
			cs, err := dnf(sub, maxClauses)
			if err != nil {
				return nil, err
			}
			var next []Clause
			for _, a := range out {
				for _, b := range cs {
					merged := make(Clause, 0, len(a)+len(b))
					merged = append(merged, a...)
					merged = append(merged, b...)
					next = append(next, merged)
					if len(next) > maxClauses {
						return nil, ErrTooLarge
					}
				}
			}
			out = next
		}
		return out, nil
	default:
		return nil, fmt.Errorf("expr: DNF of non-quantifier-free formula %T", f)
	}
}

// ClauseFormula rebuilds a formula from a clause.
func ClauseFormula(c Clause) Formula {
	fs := make([]Formula, len(c))
	for i, a := range c {
		fs[i] = AtomF{a}
	}
	return Conj(fs...)
}

// DNFFormula rebuilds a formula from DNF clauses.
func DNFFormula(cs []Clause) Formula {
	fs := make([]Formula, len(cs))
	for i, c := range cs {
		fs[i] = ClauseFormula(c)
	}
	return Disj(fs...)
}

// Simplify performs cheap syntactic simplification: constant folding of
// atoms, flattening, deduplication, and subsumption between inequalities
// that share a linear part. It never changes the meaning of the formula.
// The verifier applies it at junction points during back-substitution to
// control formula growth (Section 5.2.1, fifth enhancement).
//
// Subtrees that Simplify leaves unchanged come back as the same values,
// so a formula already at Simplify's fixed point comes back as f
// itself, without allocating. One pass does not always reach that
// point: normalizing a divisibility atom can leave a constant one (2 | 2x
// becomes 2 | 0) that only the next pass folds.
func Simplify(f Formula) Formula {
	g, _ := simplify(f)
	return g
}

// simplify is Simplify that also reports whether the result differs
// from f; an unchanged result is f itself.
func simplify(f Formula) (Formula, bool) {
	switch g := f.(type) {
	case AtomF:
		return simplifyAtom(f, g.A)
	case Not:
		s, changed := simplify(g.F)
		switch s.(type) {
		case TrueF, FalseF, Not:
			return Negate(s), true
		}
		if changed {
			return Not{s}, true
		}
	case And:
		return simplifyAnd(f, g.Fs)
	case Or:
		return simplifyOr(f, g.Fs)
	case Impl:
		a, changedA := simplify(g.A)
		b, changedB := simplify(g.B)
		if Equal(a, b) {
			return TrueF{}, true
		}
		switch a.(type) {
		case TrueF, FalseF:
			return Implies(a, b), true
		}
		if _, ok := b.(TrueF); ok {
			return TrueF{}, true
		}
		if changedA || changedB {
			return Impl{A: a, B: b}, true
		}
	case Forall:
		inner, changed := simplify(g.F)
		if !Occurs(inner, g.V) {
			return inner, true
		}
		if changed {
			return Forall{V: g.V, F: inner}, true
		}
	case Exists:
		inner, changed := simplify(g.F)
		if !Occurs(inner, g.V) {
			return inner, true
		}
		if changed {
			return Exists{V: g.V, F: inner}, true
		}
	}
	return f, false
}

// simplifyAtom folds a constant atom to true or false and otherwise
// normalizes it; f is the atom's own formula value, returned as is when
// the atom is already in normal form.
func simplifyAtom(f Formula, a Atom) (Formula, bool) {
	if c, ok := a.E.IsConst(); ok {
		switch a.Kind {
		case GE:
			if c >= 0 {
				return TrueF{}, true
			}
			return FalseF{}, true
		case EQ:
			if c == 0 {
				return TrueF{}, true
			}
			return FalseF{}, true
		case DIV:
			m := a.M
			if m < 0 {
				m = -m
			}
			if m == 0 {
				if c == 0 {
					return TrueF{}, true
				}
				return FalseF{}, true
			}
			if c%m == 0 {
				return TrueF{}, true
			}
			return FalseF{}, true
		}
	}
	if atomNormal(a) {
		return f, false
	}
	return AtomF{normalizeAtom(a)}, true
}

// atomNormal reports whether normalizeAtom would return a unchanged,
// without building the normalized copy.
func atomNormal(a Atom) bool {
	switch a.Kind {
	case GE:
		return coefGCD(a.E) <= 1
	case EQ:
		g := coefGCD(a.E)
		return g <= 1 || a.E.Const%g != 0
	case DIV:
		if a.M <= 0 {
			return false
		}
		for _, t := range a.E.terms {
			if t.C <= 0 || t.C >= a.M {
				return false
			}
		}
		return a.E.Const >= 0 && a.E.Const < a.M
	}
	return true
}

// coefGCD returns the gcd of e's coefficients (0 for a constant).
func coefGCD(e LinExpr) int64 {
	g := int64(0)
	for _, t := range e.terms {
		g = gcd(g, t.C)
	}
	return g
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// normalizeAtom divides a GE atom's coefficients by their gcd (with floor
// on the constant) and an EQ atom by the gcd of all terms when it divides
// the constant; DIV atoms reduce coefficients modulo m.
func normalizeAtom(a Atom) Atom {
	switch a.Kind {
	case GE:
		if g := coefGCD(a.E); g > 1 {
			ts := make([]VarTerm, len(a.E.terms))
			for i, t := range a.E.terms {
				ts[i] = VarTerm{V: t.V, C: t.C / g}
			}
			return Atom{Kind: GE, E: LinExpr{terms: ts, Const: floorDiv(a.E.Const, g)}}
		}
	case EQ:
		if g := coefGCD(a.E); g > 1 && a.E.Const%g == 0 {
			ts := make([]VarTerm, len(a.E.terms))
			for i, t := range a.E.terms {
				ts[i] = VarTerm{V: t.V, C: t.C / g}
			}
			return Atom{Kind: EQ, E: LinExpr{terms: ts, Const: a.E.Const / g}}
		}
	case DIV:
		m := a.M
		if m < 0 {
			m = -m
		}
		if m == 0 {
			return Atom{Kind: EQ, E: a.E}
		}
		ts := make([]VarTerm, 0, len(a.E.terms))
		for _, t := range a.E.terms {
			if r := mod(t.C, m); r != 0 {
				ts = append(ts, VarTerm{V: t.V, C: r})
			}
		}
		if len(ts) == 0 {
			ts = nil
		}
		return Atom{Kind: DIV, M: m, E: LinExpr{terms: ts, Const: mod(a.E.Const, m)}}
	}
	return a
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func mod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// shareList builds the simplified child list of a conjunction or
// disjunction. While every child comes back unchanged it is only a
// prefix count of the original slice; the first difference (a changed,
// dropped, merged, or flattened child) copies that prefix into a slice
// of its own.
type shareList struct {
	src    []Formula
	out    []Formula // the list once copied
	n      int       // the list is src[:n] while not copied
	copied bool
}

// push appends x. same reports that x is the unchanged src element at
// the list's own position (the next child of an uncopied list).
func (l *shareList) push(x Formula, same bool) {
	if !l.copied && same {
		l.n++
		return
	}
	l.fork()
	l.out = append(l.out, x)
}

// fork copies the list out of src; callers about to drop, replace, or
// insert an element call it first.
func (l *shareList) fork() {
	if !l.copied {
		l.out = make([]Formula, l.n, len(l.src))
		copy(l.out, l.src[:l.n])
		l.copied = true
	}
}

func (l *shareList) len() int {
	if l.copied {
		return len(l.out)
	}
	return l.n
}

func (l *shareList) at(i int) Formula {
	if l.copied {
		return l.out[i]
	}
	return l.src[i]
}

func (l *shareList) set(i int, x Formula) {
	l.fork()
	l.out[i] = x
}

// fpInline is how many fingerprints an fpIndex holds in its fixed array
// before switching to a map.
const fpInline = 8

// fpIndex maps fingerprints to list positions: a linear scan over a
// fixed array for the first fpInline keys, so the common small
// conjunction allocates nothing, and a map past that, so a large one
// never turns quadratic.
type fpIndex struct {
	n    int
	keys [fpInline]FP
	pos  [fpInline]int
	m    map[FP]int
}

func (t *fpIndex) get(k FP) (int, bool) {
	if t.m != nil {
		p, ok := t.m[k]
		return p, ok
	}
	for i := 0; i < t.n; i++ {
		if t.keys[i] == k {
			return t.pos[i], true
		}
	}
	return 0, false
}

// add records a key that get just reported absent.
func (t *fpIndex) add(k FP, p int) {
	if t.m == nil && t.n < fpInline {
		t.keys[t.n], t.pos[t.n] = k, p
		t.n++
		return
	}
	if t.m == nil {
		t.m = make(map[FP]int, 2*fpInline)
		for i := 0; i < t.n; i++ {
			t.m[t.keys[i]] = t.pos[i]
		}
	}
	t.m[k] = p
}

// dedupList is a shareList that drops exact repeats: seen maps a
// fingerprint to the position of the element it was first seen on, and
// every match is verified with Equal, so a collision keeps both.
type dedupList struct {
	shareList
	seen fpIndex
}

func (d *dedupList) add(x Formula, same bool) {
	key := Fingerprint(x)
	if j, ok := d.seen.get(key); ok {
		if Equal(d.at(j), x) {
			d.fork() // x itself is dropped
			return
		}
	} else {
		d.seen.add(key, d.len())
	}
	d.push(x, same)
}

// conjBuilder accumulates a simplified conjunction: GE atoms with the
// same linear part keep only the strongest (best maps a variable-part
// fingerprint to the position of its first such atom, every match
// verified against the coefficients, so a collision degrades to "no
// subsumption"), and other conjuncts are deduplicated.
type conjBuilder struct {
	dedupList
	best fpIndex
}

func (b *conjBuilder) add(x Formula, same bool) {
	a, ok := x.(AtomF)
	if !ok || a.A.Kind != GE {
		b.dedupList.add(x, same)
		return
	}
	key := VarPartFP(a.A.E, false)
	if j, ok := b.best.get(key); ok {
		if prev, okA := b.at(j).(AtomF); okA && SameVarPart(prev.A.E, a.A.E, false) {
			// Same linear part: e + c1 >= 0 and e + c2 >= 0; the
			// conjunction is e + min(c1,c2) >= 0.
			if a.A.E.Const < prev.A.E.Const {
				b.set(j, x)
			}
			b.fork() // x itself is dropped
			return
		}
	} else {
		b.best.add(key, b.len())
	}
	b.push(x, same)
}

func simplifyAnd(f Formula, fs []Formula) (Formula, bool) {
	b := conjBuilder{dedupList: dedupList{shareList: shareList{src: fs}}}
	for _, c := range fs {
		s, changed := simplify(c)
		switch g := s.(type) {
		case nil, TrueF:
			b.fork()
		case FalseF:
			return FalseF{}, true
		case And:
			b.fork()
			for _, sub := range g.Fs {
				b.add(sub, false)
			}
		default:
			b.add(s, !changed)
		}
	}
	// Detect e >= 0 ∧ -e >= 0 pairs => e = 0, and direct contradictions
	// e + c >= 0 ∧ -e - c' >= 0 with c' > c.
	for i := 0; i < b.len(); i++ {
		a, ok := b.at(i).(AtomF)
		if !ok || a.A.Kind != GE {
			continue
		}
		if j, ok2 := b.best.get(VarPartFP(a.A.E, true)); ok2 && j != i {
			bj, okB := b.at(j).(AtomF)
			if !okB || !SameVarPart(bj.A.E, a.A.E, true) {
				continue
			}
			// a: e + c >= 0 ; bj: -e + d >= 0 i.e. e <= d
			// contradiction if -c > d
			if -a.A.E.Const > bj.A.E.Const {
				return FalseF{}, true
			}
			if -a.A.E.Const == bj.A.E.Const && i < j {
				// e = -c exactly
				b.set(i, AtomF{Atom{Kind: EQ, E: a.A.E}})
				b.set(j, TrueF{})
			}
		}
	}
	if b.copied {
		return Conj(b.out...), true
	}
	if len(fs) >= 2 {
		return f, false
	}
	return Conj(fs...), true
}

func simplifyOr(f Formula, fs []Formula) (Formula, bool) {
	d := dedupList{shareList: shareList{src: fs}}
	for _, c := range fs {
		s, changed := simplify(c)
		switch g := s.(type) {
		case nil, FalseF:
			d.fork()
		case TrueF:
			return TrueF{}, true
		case Or:
			d.fork()
			for _, sub := range g.Fs {
				d.add(sub, false)
			}
		default:
			d.add(s, !changed)
		}
	}
	if d.copied {
		return Disj(d.out...), true
	}
	if len(fs) >= 2 {
		return f, false
	}
	return Disj(fs...), true
}

// Size returns the number of atoms and connectives in f, used by the
// induction-iteration candidate-ranking heuristic.
func Size(f Formula) int {
	switch g := f.(type) {
	case TrueF, FalseF, AtomF:
		return 1
	case Not:
		return 1 + Size(g.F)
	case And:
		n := 1
		for _, s := range g.Fs {
			n += Size(s)
		}
		return n
	case Or:
		n := 1
		for _, s := range g.Fs {
			n += Size(s)
		}
		return n
	case Impl:
		return 1 + Size(g.A) + Size(g.B)
	case Forall:
		return 1 + Size(g.F)
	case Exists:
		return 1 + Size(g.F)
	}
	return 1
}
