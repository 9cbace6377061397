// Package expr implements the annotation language of the safety checker:
// linear expressions over integer variables, and formulas built from
// linear equalities/inequalities and divisibility (alignment) constraints
// combined with ∧, ∨, ¬, →, and the quantifiers ∀ and ∃. These are the
// Presburger formulas the paper feeds to its Omega-library-based theorem
// prover (Section 5.2).
package expr

import (
	"fmt"
	"sort"
	"strings"
)

// Var names an integer variable: a machine register at a window depth
// (e.g. "w0.%o0"), a symbolic input bound ("n"), the value of an abstract
// location ("val.e"), or a fresh havoc variable.
type Var string

// VarTerm is one c*v term of a linear expression.
type VarTerm struct {
	V Var
	C int64
}

// LinExpr is a linear expression sum(c_i * v_i) + Const. The terms are
// kept sorted by variable with no zero coefficients, so the
// representation is canonical: Equal is an elementwise scan and every
// iteration is deterministic. The zero value is the constant 0.
//
// LinExpr values are immutable; operations return new expressions.
// Because of that, expressions freely share term slices (AddConst and
// Subst reuse their input's terms) — callers must never mutate the
// slice returned by Terms. LinExpr used to be a map[Var]int64; the
// checker allocates millions of short-lived expressions during WLP
// back-substitution and Fourier–Motzkin elimination, and the map's
// allocation, iteration, and GC-scan cost dominated every profile.
type LinExpr struct {
	terms []VarTerm
	Const int64
}

// Const returns the constant expression c.
func Constant(c int64) LinExpr { return LinExpr{Const: c} }

// V returns the expression consisting of the single variable v.
func V(v Var) LinExpr { return LinExpr{terms: []VarTerm{{V: v, C: 1}}} }

// Term returns c*v.
func Term(c int64, v Var) LinExpr {
	if c == 0 {
		return LinExpr{}
	}
	return LinExpr{terms: []VarTerm{{V: v, C: c}}}
}

// Terms returns e's terms, sorted by variable, with no zero
// coefficients. The slice is shared with e and must not be mutated.
func (e LinExpr) Terms() []VarTerm { return e.terms }

// NumTerms returns the number of variables with nonzero coefficient.
func (e LinExpr) NumTerms() int { return len(e.terms) }

// Add returns e + o, merging the two sorted term lists.
func (e LinExpr) Add(o LinExpr) LinExpr {
	if len(o.terms) == 0 {
		return LinExpr{terms: e.terms, Const: e.Const + o.Const}
	}
	if len(e.terms) == 0 {
		return LinExpr{terms: o.terms, Const: e.Const + o.Const}
	}
	out := make([]VarTerm, 0, len(e.terms)+len(o.terms))
	i, j := 0, 0
	for i < len(e.terms) && j < len(o.terms) {
		a, b := e.terms[i], o.terms[j]
		switch {
		case a.V < b.V:
			out = append(out, a)
			i++
		case b.V < a.V:
			out = append(out, b)
			j++
		default:
			if c := a.C + b.C; c != 0 {
				out = append(out, VarTerm{V: a.V, C: c})
			}
			i++
			j++
		}
	}
	out = append(out, e.terms[i:]...)
	out = append(out, o.terms[j:]...)
	return LinExpr{terms: out, Const: e.Const + o.Const}
}

// Sub returns e - o.
func (e LinExpr) Sub(o LinExpr) LinExpr { return e.Add(o.Scale(-1)) }

// Scale returns k*e.
func (e LinExpr) Scale(k int64) LinExpr {
	if k == 0 {
		return LinExpr{}
	}
	if k == 1 {
		return e
	}
	out := make([]VarTerm, len(e.terms))
	for i, t := range e.terms {
		out[i] = VarTerm{V: t.V, C: t.C * k}
	}
	return LinExpr{terms: out, Const: e.Const * k}
}

// AddConst returns e + c.
func (e LinExpr) AddConst(c int64) LinExpr {
	return LinExpr{terms: e.terms, Const: e.Const + c}
}

// CoefOf returns the coefficient of v in e.
func (e LinExpr) CoefOf(v Var) int64 {
	for _, t := range e.terms {
		if t.V >= v {
			if t.V == v {
				return t.C
			}
			return 0
		}
	}
	return 0
}

// IsConst reports whether e has no variables, returning its value.
func (e LinExpr) IsConst() (int64, bool) {
	if len(e.terms) == 0 {
		return e.Const, true
	}
	return 0, false
}

// Vars returns the variables of e in sorted order.
func (e LinExpr) Vars() []Var {
	vs := make([]Var, len(e.terms))
	for i, t := range e.terms {
		vs[i] = t.V
	}
	return vs
}

// Subst returns e with every occurrence of v replaced by r.
func (e LinExpr) Subst(v Var, r LinExpr) LinExpr {
	idx := -1
	for i, t := range e.terms {
		if t.V == v {
			idx = i
			break
		}
		if t.V > v {
			return e
		}
	}
	if idx < 0 {
		return e
	}
	c := e.terms[idx].C
	rest := make([]VarTerm, 0, len(e.terms)-1)
	rest = append(rest, e.terms[:idx]...)
	rest = append(rest, e.terms[idx+1:]...)
	return LinExpr{terms: rest, Const: e.Const}.Add(r.Scale(c))
}

// Equal reports structural equality. The canonical sorted
// representation makes this an elementwise comparison.
func (e LinExpr) Equal(o LinExpr) bool {
	if e.Const != o.Const || len(e.terms) != len(o.terms) {
		return false
	}
	for i, t := range e.terms {
		if o.terms[i] != t {
			return false
		}
	}
	return true
}

// Eval evaluates e under the given assignment (unassigned vars read 0).
func (e LinExpr) Eval(env map[Var]int64) int64 {
	r := e.Const
	for _, t := range e.terms {
		r += t.C * env[t.V]
	}
	return r
}

func (e LinExpr) String() string {
	var b strings.Builder
	first := true
	for _, t := range e.terms {
		v, c := t.V, t.C
		switch {
		case first && c == 1:
			fmt.Fprintf(&b, "%s", v)
		case first && c == -1:
			fmt.Fprintf(&b, "-%s", v)
		case first:
			fmt.Fprintf(&b, "%d*%s", c, v)
		case c == 1:
			fmt.Fprintf(&b, " + %s", v)
		case c == -1:
			fmt.Fprintf(&b, " - %s", v)
		case c > 0:
			fmt.Fprintf(&b, " + %d*%s", c, v)
		default:
			fmt.Fprintf(&b, " - %d*%s", -c, v)
		}
		first = false
	}
	switch {
	case first:
		fmt.Fprintf(&b, "%d", e.Const)
	case e.Const > 0:
		fmt.Fprintf(&b, " + %d", e.Const)
	case e.Const < 0:
		fmt.Fprintf(&b, " - %d", -e.Const)
	}
	return b.String()
}

// AtomKind discriminates atomic constraints.
type AtomKind int

const (
	// GE is the constraint E >= 0.
	GE AtomKind = iota
	// EQ is the constraint E == 0.
	EQ
	// DIV is the divisibility constraint M | E (used for alignment).
	DIV
)

// Atom is an atomic linear constraint.
type Atom struct {
	Kind AtomKind
	M    int64 // modulus, for DIV
	E    LinExpr
}

// Formula is a Presburger formula. Implementations: True, False, Atom
// (via AtomF), Not, And, Or, Impl, Forall, Exists.
//
// Formulas are immutable. The rewriters (Subst, SubstAll, Simplify)
// return the subtrees they leave unchanged as the same values, and may
// return their input itself, so any formula may share structure with
// any other: no code may mutate a formula's slices (And.Fs, Or.Fs, or
// a LinExpr's terms) after construction.
type Formula interface {
	// FreeVars accumulates free variables into the set.
	FreeVars(set map[Var]bool)
	// Eval evaluates the formula under a total assignment; quantifiers
	// are evaluated over the given finite domain of candidate values
	// (used only for property testing).
	Eval(env map[Var]int64, domain []int64) bool
	String() string
}

// True and False are the boolean constants.
type (
	TrueF  struct{}
	FalseF struct{}
)

// AtomF wraps an Atom as a Formula.
type AtomF struct{ A Atom }

// Not is negation.
type Not struct{ F Formula }

// And is n-ary conjunction.
type And struct{ Fs []Formula }

// Or is n-ary disjunction.
type Or struct{ Fs []Formula }

// Impl is implication A -> B.
type Impl struct{ A, B Formula }

// Forall is universal quantification.
type Forall struct {
	V Var
	F Formula
}

// Exists is existential quantification.
type Exists struct {
	V Var
	F Formula
}

// Convenience constructors.

// T returns the true formula.
func T() Formula { return TrueF{} }

// F returns the false formula.
func F() Formula { return FalseF{} }

// Ge returns the formula e >= 0.
func Ge(e LinExpr) Formula { return AtomF{Atom{Kind: GE, E: e}} }

// GeExpr returns a >= b.
func GeExpr(a, b LinExpr) Formula { return Ge(a.Sub(b)) }

// GtExpr returns a > b (i.e. a - b - 1 >= 0).
func GtExpr(a, b LinExpr) Formula { return Ge(a.Sub(b).AddConst(-1)) }

// LeExpr returns a <= b.
func LeExpr(a, b LinExpr) Formula { return Ge(b.Sub(a)) }

// LtExpr returns a < b.
func LtExpr(a, b LinExpr) Formula { return Ge(b.Sub(a).AddConst(-1)) }

// Eq returns the formula e == 0.
func Eq(e LinExpr) Formula { return AtomF{Atom{Kind: EQ, E: e}} }

// EqExpr returns a == b.
func EqExpr(a, b LinExpr) Formula { return Eq(a.Sub(b)) }

// NeExpr returns a != b.
func NeExpr(a, b LinExpr) Formula { return Not{EqExpr(a, b)} }

// Divides returns the formula m | e.
func Divides(m int64, e LinExpr) Formula { return AtomF{Atom{Kind: DIV, M: m, E: e}} }

// Conj returns the conjunction of fs, flattening and short-circuiting.
// A first pass sizes the result, so it is allocated once.
func Conj(fs ...Formula) Formula {
	n := 0
	var last Formula
	for _, f := range fs {
		switch g := f.(type) {
		case nil, TrueF:
		case FalseF:
			return FalseF{}
		case And:
			if len(g.Fs) > 0 {
				n += len(g.Fs)
				last = g.Fs[len(g.Fs)-1]
			}
		default:
			n++
			last = f
		}
	}
	switch n {
	case 0:
		return TrueF{}
	case 1:
		return last
	}
	out := make([]Formula, 0, n)
	for _, f := range fs {
		switch g := f.(type) {
		case nil, TrueF:
		case And:
			out = append(out, g.Fs...)
		default:
			out = append(out, f)
		}
	}
	return And{Fs: out}
}

// Disj returns the disjunction of fs, flattening and short-circuiting.
// A first pass sizes the result, so it is allocated once.
func Disj(fs ...Formula) Formula {
	n := 0
	var last Formula
	for _, f := range fs {
		switch g := f.(type) {
		case nil, FalseF:
		case TrueF:
			return TrueF{}
		case Or:
			if len(g.Fs) > 0 {
				n += len(g.Fs)
				last = g.Fs[len(g.Fs)-1]
			}
		default:
			n++
			last = f
		}
	}
	switch n {
	case 0:
		return FalseF{}
	case 1:
		return last
	}
	out := make([]Formula, 0, n)
	for _, f := range fs {
		switch g := f.(type) {
		case nil, FalseF:
		case Or:
			out = append(out, g.Fs...)
		default:
			out = append(out, f)
		}
	}
	return Or{Fs: out}
}

// Implies returns a -> b with trivial simplifications.
func Implies(a, b Formula) Formula {
	switch a.(type) {
	case TrueF:
		return b
	case FalseF:
		return TrueF{}
	}
	if _, ok := b.(TrueF); ok {
		return TrueF{}
	}
	return Impl{A: a, B: b}
}

// Negate returns ¬f with trivial simplifications.
func Negate(f Formula) Formula {
	switch g := f.(type) {
	case TrueF:
		return FalseF{}
	case FalseF:
		return TrueF{}
	case Not:
		return g.F
	}
	return Not{F: f}
}

// --- Subst ---

// mentions reports whether v is one of e's terms (the terms are sorted,
// so the scan stops at the first larger variable).
func (e LinExpr) mentions(v Var) bool {
	for _, t := range e.terms {
		if t.V >= v {
			return t.V == v
		}
	}
	return false
}

// Subst replaces every free occurrence of v in f by r. Subtrees in
// which v does not occur free come back as the same values rather than
// copies, and f itself comes back when nothing changes.
func Subst(f Formula, v Var, r LinExpr) Formula {
	g, _ := subst(f, v, r)
	return g
}

// subst is Subst that also reports whether anything changed; an
// unchanged result is f itself.
func subst(f Formula, v Var, r LinExpr) (Formula, bool) {
	switch g := f.(type) {
	case AtomF:
		if !g.A.E.mentions(v) {
			return f, false
		}
		return AtomF{Atom{Kind: g.A.Kind, M: g.A.M, E: g.A.E.Subst(v, r)}}, true
	case Not:
		if s, ok := subst(g.F, v, r); ok {
			return Not{s}, true
		}
	case And:
		if fs, ok := rewriteEach(g.Fs, func(s Formula) (Formula, bool) { return subst(s, v, r) }); ok {
			return And{fs}, true
		}
	case Or:
		if fs, ok := rewriteEach(g.Fs, func(s Formula) (Formula, bool) { return subst(s, v, r) }); ok {
			return Or{fs}, true
		}
	case Impl:
		a, okA := subst(g.A, v, r)
		b, okB := subst(g.B, v, r)
		if okA || okB {
			return Impl{A: a, B: b}, true
		}
	case Forall:
		if g.V != v {
			if s, ok := subst(g.F, v, r); ok {
				return Forall{V: g.V, F: s}, true
			}
		}
	case Exists:
		if g.V != v {
			if s, ok := subst(g.F, v, r); ok {
				return Exists{V: g.V, F: s}, true
			}
		}
	}
	return f, false
}

// rewriteEach applies rw to every formula of fs. When no result changed
// it returns fs itself; otherwise a new slice that shares the unchanged
// elements.
func rewriteEach(fs []Formula, rw func(Formula) (Formula, bool)) ([]Formula, bool) {
	for i, s := range fs {
		t, ok := rw(s)
		if !ok {
			continue
		}
		out := make([]Formula, len(fs))
		copy(out, fs[:i])
		out[i] = t
		for j := i + 1; j < len(fs); j++ {
			out[j], _ = rw(fs[j])
		}
		return out, true
	}
	return fs, false
}

// substMap applies a parallel substitution to e: every term whose
// variable is mapped is replaced by its image, all images read from the
// original e simultaneously. The second result reports whether any
// term was substituted (false returns e itself, unchanged).
func (e LinExpr) substMap(sub map[Var]LinExpr) (LinExpr, bool) {
	hit := false
	for _, t := range e.terms {
		if _, ok := sub[t.V]; ok {
			hit = true
			break
		}
	}
	if !hit {
		return e, false
	}
	kept := make([]VarTerm, 0, len(e.terms))
	acc := LinExpr{Const: e.Const}
	for _, t := range e.terms {
		if r, ok := sub[t.V]; ok {
			acc = acc.Add(r.Scale(t.C))
		} else {
			kept = append(kept, t)
		}
	}
	return LinExpr{terms: kept}.Add(acc), true
}

// SubstAll applies a set of parallel substitutions to f in one walk:
// each atom's images are read from the unsubstituted atom, so
// substitution targets may freely mention substituted variables. (This
// used to be simulated with a rename-through-temporaries pass, costing
// two full formula rebuilds per substituted variable.) Like Subst, it
// shares every subtree it does not change.
func SubstAll(f Formula, sub map[Var]LinExpr) Formula {
	g, _ := substAll(f, sub)
	return g
}

// substAll is SubstAll that also reports whether anything changed; an
// unchanged result is f itself.
func substAll(f Formula, sub map[Var]LinExpr) (Formula, bool) {
	if len(sub) == 0 {
		return f, false
	}
	switch g := f.(type) {
	case AtomF:
		if e, ok := g.A.E.substMap(sub); ok {
			return AtomF{Atom{Kind: g.A.Kind, M: g.A.M, E: e}}, true
		}
	case Not:
		if s, ok := substAll(g.F, sub); ok {
			return Not{s}, true
		}
	case And:
		if fs, ok := rewriteEach(g.Fs, func(s Formula) (Formula, bool) { return substAll(s, sub) }); ok {
			return And{fs}, true
		}
	case Or:
		if fs, ok := rewriteEach(g.Fs, func(s Formula) (Formula, bool) { return substAll(s, sub) }); ok {
			return Or{fs}, true
		}
	case Impl:
		a, okA := substAll(g.A, sub)
		b, okB := substAll(g.B, sub)
		if okA || okB {
			return Impl{A: a, B: b}, true
		}
	case Forall:
		if s, ok := substAll(g.F, substWithout(sub, g.V)); ok {
			return Forall{V: g.V, F: s}, true
		}
	case Exists:
		if s, ok := substAll(g.F, substWithout(sub, g.V)); ok {
			return Exists{V: g.V, F: s}, true
		}
	}
	return f, false
}

// substWithout drops the binding for v (the bound variable shadows it),
// copying the map only when v is actually mapped.
func substWithout(sub map[Var]LinExpr, v Var) map[Var]LinExpr {
	if _, ok := sub[v]; !ok {
		return sub
	}
	out := make(map[Var]LinExpr, len(sub)-1)
	for k, r := range sub {
		if k != v {
			out[k] = r
		}
	}
	return out
}

// --- FreeVars ---

func (TrueF) FreeVars(map[Var]bool)  {}
func (FalseF) FreeVars(map[Var]bool) {}

func (a AtomF) FreeVars(set map[Var]bool) {
	for _, t := range a.A.E.terms {
		set[t.V] = true
	}
}
func (n Not) FreeVars(set map[Var]bool) { n.F.FreeVars(set) }
func (a And) FreeVars(set map[Var]bool) {
	for _, f := range a.Fs {
		f.FreeVars(set)
	}
}
func (o Or) FreeVars(set map[Var]bool) {
	for _, f := range o.Fs {
		f.FreeVars(set)
	}
}
func (i Impl) FreeVars(set map[Var]bool) { i.A.FreeVars(set); i.B.FreeVars(set) }

// A quantifier's body adds its free variables to the caller's set
// directly; the bound variable's entry is then put back as it was, so an
// occurrence free elsewhere in the enclosing formula survives.
func (q Forall) FreeVars(set map[Var]bool) { boundFreeVars(q.V, q.F, set) }
func (q Exists) FreeVars(set map[Var]bool) { boundFreeVars(q.V, q.F, set) }

func boundFreeVars(v Var, body Formula, set map[Var]bool) {
	prev, had := set[v]
	body.FreeVars(set)
	if had {
		set[v] = prev
	} else {
		delete(set, v)
	}
}

// Occurs reports whether v occurs free in f: FreeVars for one variable,
// without building a set, stopping at the first occurrence.
func Occurs(f Formula, v Var) bool {
	switch g := f.(type) {
	case AtomF:
		return g.A.E.mentions(v)
	case Not:
		return Occurs(g.F, v)
	case And:
		for _, s := range g.Fs {
			if Occurs(s, v) {
				return true
			}
		}
	case Or:
		for _, s := range g.Fs {
			if Occurs(s, v) {
				return true
			}
		}
	case Impl:
		return Occurs(g.A, v) || Occurs(g.B, v)
	case Forall:
		return g.V != v && Occurs(g.F, v)
	case Exists:
		return g.V != v && Occurs(g.F, v)
	}
	return false
}

// FreeVarsOf returns the sorted free variables of f.
func FreeVarsOf(f Formula) []Var {
	set := make(map[Var]bool)
	f.FreeVars(set)
	vs := make([]Var, 0, len(set))
	for v := range set {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// --- Eval (testing aid) ---

func (TrueF) Eval(map[Var]int64, []int64) bool  { return true }
func (FalseF) Eval(map[Var]int64, []int64) bool { return false }

func (a AtomF) Eval(env map[Var]int64, _ []int64) bool {
	v := a.A.E.Eval(env)
	switch a.A.Kind {
	case GE:
		return v >= 0
	case EQ:
		return v == 0
	case DIV:
		if a.A.M == 0 {
			return v == 0
		}
		return v%a.A.M == 0
	}
	return false
}

func (n Not) Eval(env map[Var]int64, d []int64) bool { return !n.F.Eval(env, d) }

func (a And) Eval(env map[Var]int64, d []int64) bool {
	for _, f := range a.Fs {
		if !f.Eval(env, d) {
			return false
		}
	}
	return true
}

func (o Or) Eval(env map[Var]int64, d []int64) bool {
	for _, f := range o.Fs {
		if f.Eval(env, d) {
			return true
		}
	}
	return false
}

func (i Impl) Eval(env map[Var]int64, d []int64) bool {
	return !i.A.Eval(env, d) || i.B.Eval(env, d)
}

func (q Forall) Eval(env map[Var]int64, d []int64) bool {
	saved, had := env[q.V]
	defer restore(env, q.V, saved, had)
	for _, x := range d {
		env[q.V] = x
		if !q.F.Eval(env, d) {
			return false
		}
	}
	return true
}

func (q Exists) Eval(env map[Var]int64, d []int64) bool {
	saved, had := env[q.V]
	defer restore(env, q.V, saved, had)
	for _, x := range d {
		env[q.V] = x
		if q.F.Eval(env, d) {
			return true
		}
	}
	return false
}

func restore(env map[Var]int64, v Var, saved int64, had bool) {
	if had {
		env[v] = saved
	} else {
		delete(env, v)
	}
}

// --- String ---

func (TrueF) String() string  { return "true" }
func (FalseF) String() string { return "false" }

func (a AtomF) String() string {
	switch a.A.Kind {
	case GE:
		return a.A.E.String() + " >= 0"
	case EQ:
		return a.A.E.String() + " = 0"
	case DIV:
		return fmt.Sprintf("%d | (%s)", a.A.M, a.A.E)
	}
	return "?"
}

func (n Not) String() string { return "¬(" + n.F.String() + ")" }

func joinFormulas(fs []Formula, sep string) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

func (a And) String() string    { return joinFormulas(a.Fs, " ∧ ") }
func (o Or) String() string     { return joinFormulas(o.Fs, " ∨ ") }
func (i Impl) String() string   { return "(" + i.A.String() + " → " + i.B.String() + ")" }
func (q Forall) String() string { return fmt.Sprintf("∀%s.(%s)", q.V, q.F) }
func (q Exists) String() string { return fmt.Sprintf("∃%s.(%s)", q.V, q.F) }
