package expr

// Reference rewriters: the copying forms of Subst, SubstAll and Simplify
// that rebuilt every node they visited, and the Conj and Disj that grew
// their result slice by appending. The sharing rewriters and the
// presized constructors replaced them; they survive here only as the
// oracle the equivalence tests in share_test.go compare against.

func refSubst(f Formula, v Var, r LinExpr) Formula {
	switch g := f.(type) {
	case TrueF:
		return TrueF{}
	case FalseF:
		return FalseF{}
	case AtomF:
		return AtomF{Atom{Kind: g.A.Kind, M: g.A.M, E: g.A.E.Subst(v, r)}}
	case Not:
		return Not{refSubst(g.F, v, r)}
	case And:
		fs := make([]Formula, len(g.Fs))
		for i, s := range g.Fs {
			fs[i] = refSubst(s, v, r)
		}
		return And{fs}
	case Or:
		fs := make([]Formula, len(g.Fs))
		for i, s := range g.Fs {
			fs[i] = refSubst(s, v, r)
		}
		return Or{fs}
	case Impl:
		return Impl{A: refSubst(g.A, v, r), B: refSubst(g.B, v, r)}
	case Forall:
		if g.V == v {
			return g
		}
		return Forall{V: g.V, F: refSubst(g.F, v, r)}
	case Exists:
		if g.V == v {
			return g
		}
		return Exists{V: g.V, F: refSubst(g.F, v, r)}
	}
	return f
}

func refSubstAll(f Formula, sub map[Var]LinExpr) Formula {
	if len(sub) == 0 {
		return f
	}
	switch g := f.(type) {
	case TrueF, FalseF:
		return f
	case AtomF:
		e, changed := g.A.E.substMap(sub)
		if !changed {
			return f
		}
		return AtomF{Atom{Kind: g.A.Kind, M: g.A.M, E: e}}
	case Not:
		return Not{refSubstAll(g.F, sub)}
	case And:
		fs := make([]Formula, len(g.Fs))
		for i, s := range g.Fs {
			fs[i] = refSubstAll(s, sub)
		}
		return And{fs}
	case Or:
		fs := make([]Formula, len(g.Fs))
		for i, s := range g.Fs {
			fs[i] = refSubstAll(s, sub)
		}
		return Or{fs}
	case Impl:
		return Impl{A: refSubstAll(g.A, sub), B: refSubstAll(g.B, sub)}
	case Forall:
		return Forall{V: g.V, F: refSubstAll(g.F, substWithout(sub, g.V))}
	case Exists:
		return Exists{V: g.V, F: refSubstAll(g.F, substWithout(sub, g.V))}
	}
	return f
}

func refSimplify(f Formula) Formula {
	switch g := f.(type) {
	case AtomF:
		return refSimplifyAtom(g.A)
	case Not:
		return Negate(refSimplify(g.F))
	case And:
		return refSimplifyAnd(g.Fs)
	case Or:
		return refSimplifyOr(g.Fs)
	case Impl:
		a, b := refSimplify(g.A), refSimplify(g.B)
		if Equal(a, b) {
			return TrueF{}
		}
		return Implies(a, b)
	case Forall:
		inner := refSimplify(g.F)
		set := make(map[Var]bool)
		inner.FreeVars(set)
		if !set[g.V] {
			return inner
		}
		return Forall{V: g.V, F: inner}
	case Exists:
		inner := refSimplify(g.F)
		set := make(map[Var]bool)
		inner.FreeVars(set)
		if !set[g.V] {
			return inner
		}
		return Exists{V: g.V, F: inner}
	}
	return f
}

func refSimplifyAtom(a Atom) Formula {
	if c, ok := a.E.IsConst(); ok {
		switch a.Kind {
		case GE:
			if c >= 0 {
				return TrueF{}
			}
			return FalseF{}
		case EQ:
			if c == 0 {
				return TrueF{}
			}
			return FalseF{}
		case DIV:
			m := a.M
			if m < 0 {
				m = -m
			}
			if m == 0 {
				if c == 0 {
					return TrueF{}
				}
				return FalseF{}
			}
			if c%m == 0 {
				return TrueF{}
			}
			return FalseF{}
		}
	}
	return AtomF{normalizeAtom(a)}
}

func refSimplifyAnd(fs []Formula) Formula {
	var flat []Formula
	for _, f := range fs {
		s := refSimplify(f)
		switch g := s.(type) {
		case TrueF:
		case FalseF:
			return FalseF{}
		case And:
			flat = append(flat, g.Fs...)
		default:
			flat = append(flat, s)
		}
	}
	best := make(map[FP]int)
	var out []Formula
	seen := make(map[FP]Formula)
	dedup := func(f Formula) {
		key := Fingerprint(f)
		if prev, ok := seen[key]; ok {
			if Equal(prev, f) {
				return
			}
		} else {
			seen[key] = f
		}
		out = append(out, f)
	}
	for _, f := range flat {
		if a, ok := f.(AtomF); ok && a.A.Kind == GE {
			key := VarPartFP(a.A.E, false)
			if j, ok2 := best[key]; ok2 {
				if prev, okA := out[j].(AtomF); okA && SameVarPart(prev.A.E, a.A.E, false) {
					if a.A.E.Const < prev.A.E.Const {
						out[j] = f
					}
					continue
				}
				out = append(out, f)
				continue
			}
			best[key] = len(out)
			out = append(out, f)
			continue
		}
		dedup(f)
	}
	for i, f := range out {
		a, ok := f.(AtomF)
		if !ok || a.A.Kind != GE {
			continue
		}
		if j, ok2 := best[VarPartFP(a.A.E, true)]; ok2 && j != i {
			b, okB := out[j].(AtomF)
			if !okB || !SameVarPart(b.A.E, a.A.E, true) {
				continue
			}
			if -a.A.E.Const > b.A.E.Const {
				return FalseF{}
			}
			if -a.A.E.Const == b.A.E.Const {
				if i < j {
					out[i] = AtomF{Atom{Kind: EQ, E: a.A.E}}
					out[j] = TrueF{}
				}
			}
		}
	}
	return refConj(out...)
}

func refSimplifyOr(fs []Formula) Formula {
	var flat []Formula
	seen := make(map[FP]Formula)
	add := func(f Formula) {
		key := Fingerprint(f)
		if prev, ok := seen[key]; ok {
			if Equal(prev, f) {
				return
			}
		} else {
			seen[key] = f
		}
		flat = append(flat, f)
	}
	for _, f := range fs {
		s := refSimplify(f)
		switch g := s.(type) {
		case FalseF:
		case TrueF:
			return TrueF{}
		case Or:
			for _, sub := range g.Fs {
				add(sub)
			}
		default:
			add(s)
		}
	}
	return refDisj(flat...)
}

func refConj(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch g := f.(type) {
		case nil:
		case TrueF:
		case FalseF:
			return FalseF{}
		case And:
			out = append(out, g.Fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return TrueF{}
	case 1:
		return out[0]
	}
	return And{Fs: out}
}

func refDisj(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch g := f.(type) {
		case nil:
		case FalseF:
		case TrueF:
			return TrueF{}
		case Or:
			out = append(out, g.Fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return FalseF{}
	case 1:
		return out[0]
	}
	return Or{Fs: out}
}
