package annotate

import (
	"mcsafe/internal/cfg"
	"mcsafe/internal/expr"
	"mcsafe/internal/localcheck"
	"mcsafe/internal/policy"
	"mcsafe/internal/propagate"
	"mcsafe/internal/rtl"
	"mcsafe/internal/types"
	"mcsafe/internal/typestate"
)

// visitMem attaches the load/store safety predicates of Table 2 (and the
// load analogue): followability and operability of the base pointer,
// readability/writability and initializedness of the targets,
// assignability of stored values, plus the global null, bounds, and
// alignment conditions illustrated in Figure 3.
func (a *annotator) visitMem(node *cfg.Node, in typestate.Store) {
	res := a.res
	acc := res.Mem[node.ID]
	if acc == nil {
		return
	}
	isStore := res.Kind[node.ID] == propagate.KindStore

	// The access shape comes from the node's memory effect.
	var base, rd rtl.Reg
	var size int
	var addr rtl.Expr
	switch x := node.Shape.Mem.(type) {
	case rtl.Load:
		rd, size, addr = x.Dst, x.Size, x.Addr
	case rtl.Store:
		size, addr = x.Size, x.Addr
		rd, _ = regOf(x.Src)
	}
	if b, ok := addr.(rtl.Bin); ok {
		base, _ = regOf(b.A)
	}

	// An access that resolves to no abstract location is this check's
	// one report. Through a pointer whose only referent is null it is a
	// null dereference.
	resolved := len(acc.Targets) > 0
	if !resolved && onlyNull(a.regTS(node, base, in)) {
		a.check(node, CodeNullPtr, false, "dereference of %s, which points only to null", a.rm.Name(base))
		return
	}
	a.check(node, CodePolicy, resolved, "memory access resolves to no abstract location")
	if !resolved {
		return
	}

	// Local predicates on the base pointer (frame accesses go through
	// the annotated stack, which needs no pointer in a register).
	var facts expr.Formula = expr.T()
	if !acc.Frame {
		baseTS := a.regTS(node, base, in)
		a.check(node, CodeUninit, localcheck.Followable(baseTS),
			"base %s is not followable (%v)", a.rm.Name(base), baseTS)
		a.check(node, CodeUninit, localcheck.Operable(baseTS),
			"base %s is not operable (%v)", a.rm.Name(base), baseTS)
		facts = a.pointerFacts(expr.Var(acc.BaseVar), baseTS)
	}
	if acc.IndexReg != "" {
		idxTS := in.Get(acc.IndexReg)
		a.check(node, CodeUninit, localcheck.Operable(idxTS),
			"index %s is not usable (%v)", acc.IndexReg, idxTS)
	}

	for _, t := range acc.Targets {
		if isStore {
			val := a.regTS(node, rd, in)
			lt := res.Ini.LocTypes[t.Loc]
			if lt != nil && (lt.Kind == types.ArrayBase || lt.Kind == types.ArrayIn) {
				lt = lt.Elem
			}
			a.check(node, CodeUninit, localcheck.Operable(val),
				"storing unusable value from %s (%v)", a.rm.Name(rd), val)
			a.check(node, CodePolicy, localcheck.Assignable(res.Ini.World, val, t.Loc, lt),
				"value in %s (%v) is not assignable to %s", a.rm.Name(rd), val, t.Loc)
		} else {
			a.check(node, CodePolicy, localcheck.Readable(res.Ini.World, t.Loc),
				"location %s is not readable", t.Loc)
			a.check(node, CodeUninit, localcheck.Initialized(in.Get(t.Loc)),
				"read of possibly-uninitialized location %s", t.Loc)
		}
	}

	// Global predicates.
	if acc.Frame {
		// Frame offsets are static: bounds, alignment, and alias
		// stability are decidable here; treat them as local checks.
		a.aliasCheckFrame(node, int64(acc.IndexImm))
		if acc.Array {
			size := int64(acc.ElemType.Size())
			off := int64(acc.IndexImm)
			a.check(node, CodeOOB, off >= 0 && off < size*acc.Bound.Const,
				"stack array access at offset %d is out of bounds [0,%d)", off, size*acc.Bound.Const)
			a.check(node, CodeAlign, off%size == 0,
				"stack array access at offset %d is misaligned", off)
		}
		return
	}

	baseV := expr.V(expr.Var(acc.BaseVar))
	mayNull := acc.MayNull
	// Figure 3 condition 1: the base pointer is non-null. When the
	// points-to set excludes null the fact base >= 1 discharges it.
	a.cond(node, CodeNullPtr, "null-pointer check", expr.NeExpr(baseV, expr.Constant(0)), facts, false)
	_ = mayNull
	a.aliasCond(node, acc, baseV, facts)

	if acc.Array {
		if acc.BaseInterior && acc.IndexReg == "" && acc.IndexImm == 0 {
			// Dereference of a checked interior pointer at offset 0:
			// bounds were established at the index calculation.
			return
		}
		size := int64(acc.ElemType.Size())
		var idxE expr.LinExpr
		if acc.IndexReg != "" {
			idxE = expr.V(expr.Var(acc.IndexReg))
		} else {
			idxE = expr.Constant(int64(acc.IndexImm))
		}
		if acc.BaseInterior {
			// Nonzero offset from an interior pointer: not checkable
			// against a single summary location (Section 8).
			a.cond(node, CodeOOB, "interior-pointer offset", expr.F(), facts, false)
			return
		}
		// Figure 3 conditions: %g2 >= 0, %g2 < 4n, and the address
		// alignment (%o2 + %g2) mod 4 = 0 (which, with the base-
		// alignment fact, also enforces %g2 mod 4 = 0).
		a.cond(node, CodeOOB, "array lower bound", expr.GeExpr(idxE, expr.Constant(0)), facts, false)
		a.cond(node, CodeOOB, "array upper bound", expr.LtExpr(idxE, boundExpr(acc.Bound, size)), facts, false)
		if size > 1 {
			a.cond(node, CodeAlign, "address alignment",
				expr.Divides(size, baseV.Add(idxE)), facts, false)
		}
		return
	}

	// Field access at a constant offset: alignment of base + offset.
	align := int64(size)
	if align > 1 {
		a.cond(node, CodeAlign, "address alignment",
			expr.Divides(align, baseV.AddConst(int64(acc.IndexImm))), facts, false)
	}
}

// visitCall attaches trusted-call conditions: the argument typestates and
// the precondition of the host function's specification (Section 2's
// control aspect). Internal calls need no conditions — the callee's own
// instructions are checked.
func (a *annotator) visitCall(node *cfg.Node) {
	res := a.res
	site := node.Site
	if site == nil || site.TrustedName == "" {
		return
	}
	tf := res.Ini.Spec.Trusted[site.TrustedName]
	if tf == nil {
		a.fail(node, CodePrecond, "call to undeclared trusted function %q", site.TrustedName)
		return
	}
	// Arguments are in the convention's argument registers once the
	// delay slot (if any) has executed.
	argStore := res.Out[site.DelayNode]
	depth := res.G.Nodes[site.DelayNode].Depth
	for _, as := range tf.Args {
		if as.Index >= len(a.conv.ArgRegs) {
			a.fail(node, CodePrecond, "argument %d of %s exceeds the register-argument convention", as.Index, tf.Name)
			continue
		}
		reg := a.conv.ArgRegs[as.Index]
		ts := argStore.Get(a.rm.Loc(reg, depth))
		a.check(node, CodePrecond, argTypeOK(ts, as),
			"argument %d of %s: have %v, requires %v/%v", as.Index, tf.Name, ts, as.Type, as.State)
		a.check(node, CodePrecond, ts.Access.Has(as.Perm.ValuePerms()),
			"argument %d of %s lacks access %v", as.Index, tf.Name, as.Perm.ValuePerms())
	}
	// The precondition becomes a global safety condition after the
	// delay slot.
	pre := a.rm.RenameToDepth(tf.Pre, depth)
	if _, isTrue := pre.(expr.TrueF); !isTrue {
		a.condAt(site.DelayNode, CodePrecond, "precondition of "+tf.Name, pre, expr.T(), true)
	}
}

func (a *annotator) condAt(nodeID int, code, desc string, f, facts expr.Formula, after bool) {
	gc := &GlobalCond{
		ID: len(a.out.Conds), Node: nodeID, Code: code, Desc: desc,
		F: f, Facts: facts, AfterNode: after,
	}
	a.out.Conds = append(a.out.Conds, gc)
}

// onlyNull reports whether a pointer typestate's only referent is null.
func onlyNull(ts typestate.Typestate) bool {
	return ts.State.Kind == typestate.StatePointsTo && ts.State.MayNull && len(ts.State.Set) == 0
}

// argTypeOK checks an actual argument typestate against the declared
// requirement.
func argTypeOK(ts typestate.Typestate, as policy.ArgSpec) bool {
	if types.Meet(ts.Type, as.Type).Kind == types.Bottom {
		return false
	}
	switch as.State.Kind {
	case typestate.StateInit:
		return ts.State.Initialized()
	case typestate.StatePointsTo:
		if ts.State.Kind != typestate.StatePointsTo {
			return false
		}
		if !as.State.MayNull && ts.State.MayNull {
			return false
		}
		return true
	}
	return true
}
