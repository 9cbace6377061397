package vcgen

import (
	"sort"
	"strconv"

	"mcsafe/internal/cfg"
	"mcsafe/internal/expr"
	"mcsafe/internal/policy"
	"mcsafe/internal/rtl"
)

// freshVar mints a havoc variable: a value the analysis knows nothing
// about.
func (e *Engine) freshVar(hint string) expr.Var {
	e.fresh++
	return expr.Var("$h" + strconv.Itoa(e.fresh) + "." + hint)
}

// havoc replaces a variable by a universally quantified fresh one:
// wlp(x := unknown, Q) = ∀v. Q[x ← v]. The universal closure matters when
// the resulting formula is used as a hypothesis (e.g. W(i) chains in
// induction iteration over values loaded from summary locations).
func (e *Engine) havoc(f expr.Formula, v expr.Var, hint string) expr.Formula {
	if !expr.Occurs(f, v) {
		return f
	}
	nv := e.freshVar(hint)
	return expr.Forall{V: nv, F: expr.Subst(f, v, expr.V(nv))}
}

// havocAll applies havoc over a set of variables.
func (e *Engine) havocAll(f expr.Formula, vars []expr.Var, hint string) expr.Formula {
	for _, v := range vars {
		f = e.havoc(f, v, hint)
	}
	return f
}

// closeFresh universally closes f over the given fresh variables (those
// actually occurring free). Used after a parallel SubstAll that mapped
// clobbered variables to fresh ones.
func closeFresh(f expr.Formula, vars []expr.Var) expr.Formula {
	for _, v := range vars {
		// The vars are distinct, so wrapping f in an earlier one's
		// quantifier does not change whether a later one occurs.
		if expr.Occurs(f, v) {
			f = expr.Forall{V: v, F: f}
		}
	}
	return f
}

// regVarAt supplies the linear expression for an RTL register read at a
// window depth (the zero register reads as the constant 0); it is the
// bridge rtl.Linearize uses to name registers in the policy's variable
// space.
func (e *Engine) regVarAt(depth int) func(rtl.Reg) expr.LinExpr {
	return func(r rtl.Reg) expr.LinExpr {
		if r == rtl.ZeroReg {
			return expr.Constant(0)
		}
		return expr.V(e.rm.Var(r, depth))
	}
}

// linAt linearizes an RTL operand expression at a window depth.
func (e *Engine) linAt(x rtl.Expr, depth int) (expr.LinExpr, bool) {
	return rtl.Linearize(x, e.regVarAt(depth))
}

// mustLin linearizes an expression known to be linear (register reads
// and immediates).
func (e *Engine) mustLin(x rtl.Expr, depth int) expr.LinExpr {
	le, _ := rtl.Linearize(x, e.regVarAt(depth))
	return le
}

// wlpInsn computes wlp(insn, f): the weakest liberal precondition of one
// instruction occurrence with respect to a postcondition (Section 5.2.1;
// loads and stores follow Morris's general axiom of assignment, resolved
// through the abstract locations computed by typestate propagation). The
// instruction's semantics come entirely from its lifted RTL effects.
func (e *Engine) wlpInsn(id int, f expr.Formula) expr.Formula {
	node := e.g.Nodes[id]
	d := node.Depth

	// Shape of the effect sequence.
	var assign *rtl.Assign
	var cc *rtl.SetCC
	var ctl rtl.Effect
	var win rtl.Effect
	var load *rtl.Load
	var store *rtl.Store
	var unsup *rtl.Unsupported
	for _, eff := range node.RTL {
		switch x := eff.(type) {
		case rtl.Assign:
			a := x
			assign = &a
		case rtl.SetCC:
			c := x
			cc = &c
		case rtl.Branch, rtl.Call, rtl.Jump:
			ctl = eff
		case rtl.SaveWindow, rtl.RestoreWindow:
			win = eff
		case rtl.Load:
			l := x
			load = &l
		case rtl.Store:
			st := x
			store = &st
		case rtl.Unsupported:
			u := x
			unsup = &u
		}
	}

	switch ctl.(type) {
	case rtl.Branch:
		// Guards are applied on edges. A fused compare-and-branch (the
		// non-delay-slot ISAs) carries the SetCC that resolves the icc
		// ghosts on the branch occurrence itself, so it falls through to
		// the cc-substitution path below; delay-slot ISAs set cc on a
		// separate instruction and the branch is the identity.
		if cc == nil {
			return f
		}

	case rtl.Call:
		// The call writes the return address into the link register.
		return e.havoc(f, e.rm.Var(assign.Dst, d), "o7")

	case rtl.Jump:
		// The returning jump idiom links through the zero register; the
		// link write carries no constraint.
		return f
	}

	switch win.(type) {
	case rtl.SaveWindow:
		// New-window variables become functions of the old window:
		// %i[k]@d+1 = %o[k]@d, the new %sp is computed, and the new
		// locals/outs are unconstrained.
		wl := e.conv.Window
		rd := assign.Dst
		sub := map[expr.Var]expr.LinExpr{}
		var fresh []expr.Var
		mkFresh := func(hint string) expr.LinExpr {
			v := e.freshVar(hint)
			fresh = append(fresh, v)
			return expr.V(v)
		}
		for k := 0; k < wl.Size; k++ {
			kk := rtl.Reg(k)
			sub[e.rm.Var(wl.In+kk, d+1)] = e.regVarAt(d)(wl.Out + kk)
			sub[e.rm.Var(wl.Local+kk, d+1)] = mkFresh("l")
			if wl.Out+kk != rd {
				sub[e.rm.Var(wl.Out+kk, d+1)] = mkFresh("o")
			}
		}
		if res, ok := e.linAt(assign.Src, d); ok {
			sub[e.rm.Var(rd, d+1)] = res
		} else {
			sub[e.rm.Var(rd, d+1)] = mkFresh("sp")
		}
		return closeFresh(expr.SubstAll(f, sub), fresh)

	case rtl.RestoreWindow:
		rd := assign.Dst
		if rd == rtl.ZeroReg {
			return f
		}
		if res, ok := e.linAt(assign.Src, d); ok {
			return expr.Subst(f, e.rm.Var(rd, d-1), res)
		}
		return e.havoc(f, e.rm.Var(rd, d-1), "r")
	}

	if unsup != nil {
		// An access the checker rejected (e.g. doubleword memory ops):
		// the destination, if any, is unconstrained.
		if unsup.Dst == rtl.ZeroReg {
			return f
		}
		return e.havoc(f, e.rm.Var(unsup.Dst, d), "ld")
	}
	if load != nil {
		return e.wlpLoad(id, load.Dst, f)
	}
	if store != nil {
		return e.wlpStore(id, store.Src, f)
	}

	// Arithmetic (including cc-setting and sethi), plus fused
	// compare-and-branch occurrences (assign == nil, cc != nil).
	if assign == nil && cc == nil {
		return f
	}
	sub := map[expr.Var]expr.LinExpr{}
	var fresh []expr.Var
	mkFresh := func(hint string) expr.LinExpr {
		v := e.freshVar(hint)
		fresh = append(fresh, v)
		return expr.V(v)
	}
	if assign != nil && assign.Dst != rtl.ZeroReg {
		if res, ok := e.linAt(assign.Src, d); ok {
			sub[e.rm.Var(assign.Dst, d)] = res
		} else {
			sub[e.rm.Var(assign.Dst, d)] = mkFresh("v")
		}
	}
	if cc != nil {
		switch cc.Op {
		case rtl.Sub:
			// cmp a,b: branches compare a against b.
			sub[policy.ICCA] = e.mustLin(cc.A, d)
			sub[policy.ICCB] = e.mustLin(cc.B, d)
		case rtl.Add:
			sub[policy.ICCA] = e.mustLin(cc.A, d).Add(e.mustLin(cc.B, d))
			sub[policy.ICCB] = expr.Constant(0)
		case rtl.Or:
			// tst: orcc %g0,rs,%g0 compares rs against 0.
			if assign != nil {
				if res, ok := e.linAt(assign.Src, d); ok {
					sub[policy.ICCA] = res
					sub[policy.ICCB] = expr.Constant(0)
					break
				}
			}
			sub[policy.ICCA] = mkFresh("icc")
			sub[policy.ICCB] = mkFresh("icc")
		case rtl.And:
			// andcc rs,mask,%g0 with mask = 2^k - 1 tests divisibility
			// of rs by 2^k; rewrite equality tests on the ghosts into
			// divisibility atoms before substituting.
			if c, isImm := cc.B.(rtl.Const); isImm && c.V > 0 && (c.V&(c.V+1)) == 0 {
				f = e.rewriteICCMask(f, c.V+1, e.mustLin(cc.A, d))
				// Any remaining icc occurrences were havocked by the
				// rewrite; nothing further to substitute.
			} else {
				sub[policy.ICCA] = mkFresh("icc")
				sub[policy.ICCB] = mkFresh("icc")
			}
		default:
			sub[policy.ICCA] = mkFresh("icc")
			sub[policy.ICCB] = mkFresh("icc")
		}
	}
	if len(sub) == 0 {
		return f
	}
	return closeFresh(expr.SubstAll(f, sub), fresh)
}

// rewriteICCMask rewrites atoms over the icc ghosts produced by branch
// guards after an andcc rs,2^k-1 test: (iccA - iccB = 0) becomes
// (2^k | rs); any other icc-mentioning atom is havocked.
func (e *Engine) rewriteICCMask(f expr.Formula, m int64, rs expr.LinExpr) expr.Formula {
	var walk func(g expr.Formula) expr.Formula
	hA := e.freshVar("icc")
	hB := e.freshVar("icc")
	havocA := expr.V(hA)
	havocB := expr.V(hB)
	walk = func(g expr.Formula) expr.Formula {
		switch h := g.(type) {
		case expr.AtomF:
			ca := h.A.E.CoefOf(policy.ICCA)
			cb := h.A.E.CoefOf(policy.ICCB)
			if ca == 0 && cb == 0 {
				return g
			}
			rest := h.A.E.Sub(expr.Term(ca, policy.ICCA)).Sub(expr.Term(cb, policy.ICCB))
			if restC, isConst := rest.IsConst(); isConst && restC == 0 &&
				h.A.Kind == expr.EQ && ca == -cb && (ca == 1 || ca == -1) {
				return expr.Divides(m, rs)
			}
			return expr.AtomF{A: expr.Atom{Kind: h.A.Kind, M: h.A.M,
				E: h.A.E.Subst(policy.ICCA, havocA).Subst(policy.ICCB, havocB)}}
		case expr.Not:
			return expr.Negate(walk(h.F))
		case expr.And:
			fs := make([]expr.Formula, len(h.Fs))
			for i, sf := range h.Fs {
				fs[i] = walk(sf)
			}
			return expr.Conj(fs...)
		case expr.Or:
			fs := make([]expr.Formula, len(h.Fs))
			for i, sf := range h.Fs {
				fs[i] = walk(sf)
			}
			return expr.Disj(fs...)
		case expr.Impl:
			return expr.Implies(walk(h.A), walk(h.B))
		case expr.Forall:
			return expr.Forall{V: h.V, F: walk(h.F)}
		case expr.Exists:
			return expr.Exists{V: h.V, F: walk(h.F)}
		}
		return g
	}
	return closeFresh(walk(f), []expr.Var{hA, hB})
}

// wlpLoad: rd receives the value of one of the target locations; the
// postcondition must hold for every possibility. Summary locations have
// no single value and havoc the destination.
func (e *Engine) wlpLoad(id int, dst rtl.Reg, f expr.Formula) expr.Formula {
	node := e.g.Nodes[id]
	acc := e.Res.Mem[id]
	if dst == rtl.ZeroReg {
		return f
	}
	rd := e.rm.Var(dst, node.Depth)
	if acc == nil || len(acc.Targets) == 0 {
		return e.havoc(f, rd, "ld")
	}
	var terms []expr.Formula
	for _, t := range acc.Targets {
		if t.Summary {
			terms = append(terms, e.havoc(f, rd, "elt"))
		} else {
			terms = append(terms, expr.Subst(f, rd, expr.V(policy.ValVar(t.Loc))))
		}
	}
	return expr.Conj(terms...)
}

// wlpStore: Morris's general axiom of assignment over the abstract
// target set: the postcondition must hold whichever target the store
// actually updates; stores to summary locations havoc the location.
func (e *Engine) wlpStore(id int, srcExpr rtl.Expr, f expr.Formula) expr.Formula {
	node := e.g.Nodes[id]
	acc := e.Res.Mem[id]
	if acc == nil || len(acc.Targets) == 0 {
		return f
	}
	src := e.mustLin(srcExpr, node.Depth)
	var terms []expr.Formula
	for _, t := range acc.Targets {
		v := policy.ValVar(t.Loc)
		if t.Summary {
			terms = append(terms, e.havoc(f, v, "sum"))
		} else {
			terms = append(terms, expr.Subst(f, v, src))
		}
	}
	return expr.Conj(terms...)
}

// edgeGuard is the branch condition contributed by a CFG edge, expressed
// over the icc ghost pair. Unsigned conditions contribute no information
// (the sound direction); the evaluation programs use signed comparisons,
// as gcc emits for int arithmetic.
func (e *Engine) edgeGuard(node *cfg.Node, edge cfg.Edge) expr.Formula {
	var br *rtl.Branch
	for _, eff := range node.RTL {
		if b, ok := eff.(rtl.Branch); ok {
			b := b
			br = &b
		}
	}
	if br == nil {
		return expr.T()
	}
	cond := condFormula(br.Cond)
	if cond == nil {
		return expr.T()
	}
	switch edge.Kind {
	case cfg.EdgeTaken:
		return cond
	case cfg.EdgeFall:
		return expr.Negate(cond)
	}
	return expr.T()
}

// condFormula maps a branch condition to a constraint over (iccA, iccB),
// the comparands recorded by the last cc-setting instruction. It returns
// nil for conditions that carry no linear information.
func condFormula(c rtl.Cond) expr.Formula {
	a := expr.V(policy.ICCA)
	b := expr.V(policy.ICCB)
	switch c {
	case rtl.CondEq:
		return expr.EqExpr(a, b)
	case rtl.CondNe:
		return expr.NeExpr(a, b)
	case rtl.CondLt, rtl.CondNeg:
		return expr.LtExpr(a, b)
	case rtl.CondLe:
		return expr.LeExpr(a, b)
	case rtl.CondGt:
		return expr.GtExpr(a, b)
	case rtl.CondGe, rtl.CondPos:
		return expr.GeExpr(a, b)
	}
	return nil
}

// crossTrusted models a trusted host call during back-substitution: the
// caller-saved registers are clobbered, and the function's declared
// postcondition may be assumed about the clobbered state.
func (e *Engine) crossTrusted(site *cfg.CallSite, retCont expr.Formula) expr.Formula {
	depth := e.g.Nodes[site.DelayNode].Depth
	sub := map[expr.Var]expr.LinExpr{}
	var fresh []expr.Var
	mkFresh := func(hint string) expr.LinExpr {
		v := e.freshVar(hint)
		fresh = append(fresh, v)
		return expr.V(v)
	}
	// The convention's clobber list is canonically ordered; the fresh
	// variables are minted in that order, which is part of the verdict
	// fingerprint.
	for _, r := range e.conv.CallClobbered {
		sub[e.rm.Var(r, depth)] = mkFresh("call")
	}
	sub[policy.ICCA] = mkFresh("icc")
	sub[policy.ICCB] = mkFresh("icc")

	cont := expr.SubstAll(retCont, sub)
	tf := e.Res.Ini.Spec.Trusted[site.TrustedName]
	if tf == nil {
		return closeFresh(cont, fresh)
	}
	if _, isTrue := tf.Post.(expr.TrueF); !isTrue {
		// The postcondition speaks about the post-call registers:
		// rename to the same fresh variables.
		post := expr.SubstAll(e.renameRegsToDepth(tf.Post, depth), sub)
		cont = expr.Implies(post, cont)
	}
	return closeFresh(cont, fresh)
}

// renameRegsToDepth rewrites entry-window register variables in a policy
// formula to a window depth.
func (e *Engine) renameRegsToDepth(f expr.Formula, depth int) expr.Formula {
	if depth == 0 {
		return f
	}
	sub := map[expr.Var]expr.LinExpr{}
	for _, v := range expr.FreeVarsOf(f) {
		if len(v) >= 2 && v[0] == '%' {
			if r, ok := e.rm.Parse(string(v)); ok && e.rm.Windowed(r) {
				sub[v] = expr.V(e.rm.Var(r, depth))
			}
		}
	}
	return expr.SubstAll(f, sub)
}

// crossCallee walks through the body of an internal callee as though it
// were inlined at the call site (Section 5.2.1), returning the formula
// required just before the callee's entry for retCont to hold at the
// call site's return point.
func (e *Engine) crossCallee(site *cfg.CallSite, retCont expr.Formula) expr.Formula {
	callee := e.g.Procs[site.Callee]
	// The callee's return nodes are the delay slots of its returning
	// jmpl instructions. retCont must hold after each of them, on the
	// exit that returns to this site.
	retCont = expr.Simplify(retCont)
	targets := map[int]expr.Formula{}
	for _, ret := range callee.Returns {
		targets[ret] = e.wlpInsn(ret, retCont)
	}
	// Requirements at the return-delay nodes are "before node" targets
	// after taking the node's own wlp; passRegion conjoins targets
	// before applying wlp again, so instead pass a wrapper: mark the
	// requirement after the node by pre-applying its wlp and attaching
	// it before the node would double-apply. To keep the pass uniform
	// we attach the post-wlp formula as a target at the node and make
	// the node's own contribution vacuous by relying on the fact that a
	// return delay slot has no intraprocedural successors (its only
	// edges are return edges, which IntraSuccs drops).
	return e.passRegion(region{proc: callee}, targets, nil, nil, expr.T())
}

// modifiedVars collects the variables assigned anywhere in a loop body —
// the targets the generalization heuristic may eliminate. The write set
// of each occurrence is read off its RTL effects; the order of discovery
// (condition-code ghosts first, then the effect-specific destinations)
// is part of the generalization heuristic's search order.
func (e *Engine) modifiedVars(l *cfg.Loop) []expr.Var {
	seen := map[expr.Var]bool{}
	var out []expr.Var
	add := func(v expr.Var) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	ids := make([]int, 0, len(l.Body))
	for id := range l.Body {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		node := e.g.Nodes[id]
		d := node.Depth

		var assign *rtl.Assign
		var ctl rtl.Effect
		var win rtl.Effect
		var load *rtl.Load
		var unsup *rtl.Unsupported
		hasCC := false
		hasStore := false
		for _, eff := range node.RTL {
			switch x := eff.(type) {
			case rtl.Assign:
				a := x
				assign = &a
			case rtl.SetCC:
				hasCC = true
			case rtl.Branch, rtl.Call, rtl.Jump:
				ctl = eff
			case rtl.SaveWindow, rtl.RestoreWindow:
				win = eff
			case rtl.Load:
				ld := x
				load = &ld
			case rtl.Store:
				hasStore = true
			case rtl.Unsupported:
				u := x
				unsup = &u
			}
		}

		if hasCC {
			add(policy.ICCA)
			add(policy.ICCB)
		}
		_, isCall := ctl.(rtl.Call)
		isSave := false
		isRestore := false
		switch win.(type) {
		case rtl.SaveWindow:
			isSave = true
		case rtl.RestoreWindow:
			isRestore = true
		}

		switch {
		case isCall:
			if assign != nil && assign.Dst != rtl.ZeroReg {
				add(e.rm.Var(assign.Dst, d))
			}
			if site := e.siteByCall(id); site != nil && site.TrustedName != "" {
				for _, r := range e.conv.CallClobbered {
					add(e.rm.Var(r, d))
				}
				add(policy.ICCA)
				add(policy.ICCB)
			}
		case isSave:
			wl := e.conv.Window
			for _, bank := range []rtl.Reg{wl.Out, wl.Local, wl.In} {
				for k := 0; k < wl.Size; k++ {
					add(e.rm.Var(bank+rtl.Reg(k), d+1))
				}
			}
		case isRestore:
			if assign.Dst != rtl.ZeroReg {
				add(e.rm.Var(assign.Dst, d-1))
			}
		case hasStore:
			if acc := e.Res.Mem[id]; acc != nil {
				for _, t := range acc.Targets {
					add(policy.ValVar(t.Loc))
				}
			}
		case load != nil:
			if load.Dst != rtl.ZeroReg {
				add(e.rm.Var(load.Dst, d))
			}
		case unsup != nil:
			if unsup.Dst != rtl.ZeroReg {
				add(e.rm.Var(unsup.Dst, d))
			}
		case ctl != nil:
			// Branches and returning jumps write no tracked variable.
		default:
			if assign != nil && assign.Dst != rtl.ZeroReg {
				add(e.rm.Var(assign.Dst, d))
			}
		}
	}
	return out
}

func (e *Engine) siteByCall(id int) *cfg.CallSite {
	for _, s := range e.g.Sites {
		if s.CallNode == id {
			return s
		}
	}
	return nil
}
