// Package propagate implements Phase 2 of the safety-checking analysis:
// typestate propagation (Sections 4.2 and 5.1). A worklist algorithm
// computes the greatest fixed point of the typestate-propagation
// equations over the interprocedural control-flow graph, annotating each
// instruction with an abstract store describing the memory contents
// before its execution. Overload resolution of instructions such as add
// and ld falls out as a by-product: the type components of the operands
// determine whether an occurrence is a scalar operation, an array-index
// calculation, a pointer indirection, or a field access.
package propagate

import (
	"fmt"
	"sort"

	"mcsafe/internal/cfg"
	"mcsafe/internal/isa"
	"mcsafe/internal/policy"
	"mcsafe/internal/rtl"
	"mcsafe/internal/types"
	"mcsafe/internal/typestate"
)

// UsageKind is the resolved overload of one instruction occurrence
// (the single-usage restriction of Section 4.2.1: each occurrence
// resolves to exactly one kind).
type UsageKind int

const (
	KindUnknown UsageKind = iota
	// KindScalarOp: arithmetic on scalar values.
	KindScalarOp
	// KindArrayIndex: pointer-plus-index producing a t(n] pointer.
	KindArrayIndex
	// KindPtrOffset: pointer plus constant (field address calculation).
	KindPtrOffset
	// KindCopy: register-to-register or constant move.
	KindCopy
	// KindLoad: memory read.
	KindLoad
	// KindStore: memory write.
	KindStore
	// KindCompare: condition-code setting operation.
	KindCompare
	// KindBranch, KindCall, KindRet, KindSave, KindRestore, KindNop:
	// control and window management.
	KindBranch
	KindCall
	KindRet
	KindSave
	KindRestore
	KindNop
)

func (k UsageKind) String() string {
	names := [...]string{"unknown", "scalar-op", "array-index", "ptr-offset",
		"copy", "load", "store", "compare", "branch", "call", "ret", "save",
		"restore", "nop"}
	if int(k) < len(names) {
		return names[k]
	}
	return "?"
}

// Target is one possible destination of a memory access.
type Target struct {
	Loc     string
	Summary bool
}

// MemAccess is the resolution of one load or store: the abstract-location
// set F of Table 1, plus everything the annotation phase needs to build
// the safety predicates of Table 2.
type MemAccess struct {
	Targets []Target
	// Array is true when the base register held a t[n] or t(n] pointer.
	Array    bool
	ElemType *types.Type
	Bound    types.Bound
	// BaseVar is the expr variable of the base register ("" for
	// frame-relative accesses).
	BaseVar string
	// MayNull reports whether the base pointer's points-to set includes
	// null.
	MayNull bool
	// IndexReg is the expr variable of the index register, or "" when
	// the offset is the immediate IndexImm.
	IndexReg string
	IndexImm int32
	// MinAlign is the smallest alignment over the target locations.
	MinAlign int
	// Frame is true for %fp/%sp-relative accesses resolved through a
	// stack-frame annotation.
	Frame bool
	// BaseInterior is true when the base was a t(n] pointer (the index
	// origin is unknown, so bounds checks must cover the base offset).
	BaseInterior bool
}

// Issue is a problem discovered during propagation (unresolvable memory
// access, call into the middle of a procedure, ...). These become
// violations in the checker's report.
type Issue struct {
	Node int
	// Code is the stable violation code charged for the issue (one of
	// the annotate.Code* values, held as a string to avoid an import
	// cycle).
	Code string
	Msg  string
}

// Result is the output of typestate propagation.
type Result struct {
	G    *cfg.Graph
	Ini  *policy.Initial
	rm   *isa.RegModel
	conv *isa.Convention
	mods []*modSet
	// locs is the run's location table, and regSlots[d][reg] the slot
	// of register reg at window depth d. isReg marks every slot made for
	// a register, here or by regSlot; return edges tell registers from
	// memory by it.
	locs     *typestate.Locs
	regSlots [][]int
	isReg    []bool
	// In and Out are the abstract stores before/after each node.
	In, Out []typestate.Store
	// Kind is the resolved usage kind of each node.
	Kind []UsageKind
	// Mem is the memory-access resolution for load/store nodes.
	Mem []*MemAccess
	// Issues are propagation-time errors.
	Issues []Issue
	// Steps counts worklist iterations (reported by benchmarks).
	Steps int
	// Frames holds each procedure's frame annotation, by procedure
	// index (nil where it has none); see BindFrames.
	Frames []*policy.Frame
}

// BindFrames resolves each frame annotation's label through the
// program's symbols to the procedure whose entry it marks, and returns
// the annotations by procedure index. A procedure is named by the least
// of its entry's labels, but a frame may name any of them. A label that
// marks no procedure entry, or a second frame on one entry, is an error,
// as an unknown call target is to cfg; the annotations bound before it
// are returned with it.
func BindFrames(g *cfg.Graph, spec *policy.Spec) ([]*policy.Frame, error) {
	out := make([]*policy.Frame, len(g.Procs))
	labels := make([]string, 0, len(spec.Frames))
	for label := range spec.Frames {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		p, ok := g.ProcAtLabel(label)
		if !ok {
			return out, fmt.Errorf("propagate: frame %q names no procedure entry", label)
		}
		if prev := out[p.Index]; prev != nil {
			return out, fmt.Errorf("propagate: frames %q and %q annotate one procedure entry", prev.Proc, label)
		}
		out[p.Index] = spec.Frames[label]
	}
	return out, nil
}

// Run performs typestate propagation to a fixed point. Its stores
// index one location table, built here: the policy World's locations,
// then every register at every window depth the graph reaches. A store
// in In or Out is never written again: transfer writes into a copy.
func Run(g *cfg.Graph, ini *policy.Initial) *Result {
	r := &Result{
		G:    g,
		Ini:  ini,
		rm:   g.Prog.Arch.Regs(),
		conv: g.Prog.Arch.Conv(),
		In:   make([]typestate.Store, len(g.Nodes)),
		Out:  make([]typestate.Store, len(g.Nodes)),
		Kind: make([]UsageKind, len(g.Nodes)),
		Mem:  make([]*MemAccess, len(g.Nodes)),
		locs: typestate.NewLocs(ini.World.Names()...),
	}
	for i := range r.In {
		r.In[i] = typestate.TopStore()
		r.Out[i] = typestate.TopStore()
	}
	depths := 1
	for _, node := range g.Nodes {
		depths = max(depths, node.Depth+1)
	}
	r.regSlots = make([][]int, depths)
	for d := range r.regSlots {
		r.regSlots[d] = make([]int, r.rm.N())
		for reg := range r.regSlots[d] {
			r.regSlots[d][reg] = r.markReg(r.locs.Index(r.rm.Loc(rtl.Reg(reg), d)))
		}
	}
	entry := typestate.NewStore(r.locs)
	for _, k := range ini.Entry.Keys() {
		entry.SetInPlace(k, ini.Entry.Get(k))
	}
	r.mods = computeModSets(g, r.regSlot)
	// Return points must be revisited when their call site's pre-state
	// changes (the return-edge transfer reads the delay node's out).
	returnsOfDelay := map[int][]int{}
	for _, site := range g.Sites {
		if site.Callee >= 0 && site.Return >= 0 {
			returnsOfDelay[site.DelayNode] = append(returnsOfDelay[site.DelayNode], site.Return)
		}
	}

	issueSeen := map[string]bool{}
	report := func(node int, code, format string, args ...interface{}) {
		msg := fmt.Sprintf(format, args...)
		key := fmt.Sprintf("%d:%s", node, msg)
		if !issueSeen[key] {
			issueSeen[key] = true
			r.Issues = append(r.Issues, Issue{Node: node, Code: code, Msg: msg})
		}
	}
	var err error
	if r.Frames, err = BindFrames(g, ini.Spec); err != nil {
		// The checker rejects such a spec before this phase; any other
		// caller gets a violation, never a procedure checked unbound.
		report(g.Entry, "stack", "%v", err)
	}

	inWork := make([]bool, len(g.Nodes))
	var work []int
	push := func(id int) {
		if !inWork[id] {
			inWork[id] = true
			work = append(work, id)
		}
	}
	push(g.Entry)

	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		inWork[id] = false
		r.Steps++

		node := g.Nodes[id]

		// In = meet over predecessors' edge-transferred outs; the entry
		// node additionally meets the initial annotations.
		in := typestate.TopStore()
		if id == g.Entry {
			in = entry
		}
		for _, e := range node.Preds {
			pred := e.To
			out := r.Out[pred]
			if out.Top {
				continue
			}
			in = in.Meet(r.edgeTransfer(e, pred, id, out))
		}
		if in.Top {
			// Strict in top: propagation through this node is delayed
			// until a non-top value arrives (Section 4.2.1).
			continue
		}
		r.In[id] = in
		out := r.transfer(node, in, report)
		if !out.Equal(r.Out[id]) {
			r.Out[id] = out
			for _, e := range node.Succs {
				push(e.To)
			}
			for _, ret := range returnsOfDelay[id] {
				push(ret)
			}
		}
	}
	return r
}

// edgeTransfer applies edge-specific effects: trusted-call summary edges
// apply the trusted function's typestate summary, and return edges
// restore the caller's values for locations the callee cannot modify
// (per the procedure MOD summaries).
func (r *Result) edgeTransfer(e cfg.Edge, pred, succ int, out typestate.Store) typestate.Store {
	if e.Kind == cfg.EdgeReturn {
		site := r.G.Sites[e.Site]
		callerOut := r.Out[site.DelayNode]
		if callerOut.Top {
			// The call site has not executed yet; this return cannot
			// belong to it.
			return typestate.TopStore()
		}
		ms := r.mods[site.Callee]
		merged := callerOut.Clone()
		for _, i := range ms.regs {
			merged.SetAt(i, out.At(i))
		}
		if ms.mem {
			for i := range r.locs.Len() {
				isReg := i < len(r.isReg) && r.isReg[i]
				if (out.Has(i) || callerOut.Has(i)) && !isReg {
					merged.SetAt(i, out.At(i))
				}
			}
		}
		return merged
	}
	if e.Kind != cfg.EdgeSummary {
		return out
	}
	site := r.G.Sites[e.Site]
	if site.TrustedName == "" {
		return out
	}
	tf := r.Ini.Spec.Trusted[site.TrustedName]
	depth := r.G.Nodes[pred].Depth
	s := out.Clone()
	// Caller-saved registers are clobbered by the callee.
	for _, reg := range r.conv.CallClobbered {
		s.SetAt(r.regSlot(reg, depth), typestate.BottomTS)
	}
	if tf != nil && tf.Ret != nil {
		s.SetAt(r.regSlot(r.conv.RetReg, depth), *tf.Ret)
	}
	return s
}

func constTS(v int64) typestate.Typestate {
	return typestate.Typestate{
		Type: types.Int32Type, State: typestate.InitState,
		Access: typestate.PermO, Known: true, ConstVal: v,
	}
}

// resolveAddr upgrades a known-constant value that matches a data-symbol
// address into the corresponding pointer typestate.
func (r *Result) resolveAddr(ts typestate.Typestate) typestate.Typestate {
	if !ts.Known {
		return ts
	}
	locName, ok := r.Ini.AddrToLoc[uint32(ts.ConstVal)]
	if !ok {
		return ts
	}
	declared := r.Ini.LocTypes[locName]
	ent := r.Ini.Spec.Entity(locName)
	region := ""
	if ent != nil {
		region = ent.Region
	}
	var ptrType *types.Type
	if declared != nil && (declared.Kind == types.ArrayBase || declared.Kind == types.ArrayIn) {
		// The location holds array elements; its address is the array
		// base pointer.
		ptrType = types.NewArrayBase(declared.Elem, declared.N)
	} else if declared != nil {
		ptrType = types.NewPtr(declared)
	} else {
		return ts
	}
	perm := typestate.PermF | typestate.PermO
	if region != "" {
		if p := r.Ini.Spec.PermsFor(region, ptrType); p != 0 {
			perm = p.ValuePerms()
		}
	}
	return typestate.Typestate{
		Type:   ptrType,
		State:  typestate.PointsTo(false, typestate.Ref{Loc: locName}),
		Access: perm,
		Known:  ts.Known, ConstVal: ts.ConstVal,
	}
}

// exprTS abstracts an RTL operand expression: constants are resolved
// against the data-symbol table (an immediate that matches a symbol
// address becomes that symbol's pointer typestate), register reads go
// through the abstract store.
func (r *Result) exprTS(e rtl.Expr, d int, s typestate.Store) typestate.Typestate {
	switch x := e.(type) {
	case rtl.Const:
		return r.resolveAddr(constTS(x.V))
	case rtl.RegX:
		return r.regTS(x.R, d, s)
	}
	return typestate.BottomTS
}

// isZeroReg reports a read of the hardwired zero register.
func isZeroReg(e rtl.Expr) bool {
	x, ok := e.(rtl.RegX)
	return ok && x.R == rtl.ZeroReg
}

// regSlot returns the store slot of register reg at window depth.
func (r *Result) regSlot(reg rtl.Reg, depth int) int {
	if depth >= 0 && depth < len(r.regSlots) {
		return r.regSlots[depth][reg]
	}
	return r.markReg(r.locs.Index(r.rm.Loc(reg, depth)))
}

// markReg records slot i as a register's and returns it.
func (r *Result) markReg(i int) int {
	for len(r.isReg) <= i {
		r.isReg = append(r.isReg, false)
	}
	r.isReg[i] = true
	return i
}

func (r *Result) regTS(reg rtl.Reg, depth int, s typestate.Store) typestate.Typestate {
	if reg == rtl.ZeroReg {
		return constTS(0)
	}
	return s.At(r.regSlot(reg, depth))
}

func (r *Result) setReg(reg rtl.Reg, depth int, s *typestate.Store, ts typestate.Typestate) {
	if reg == rtl.ZeroReg {
		return
	}
	s.SetAt(r.regSlot(reg, depth), ts)
}

// withReg returns in with register reg at depth set to ts (see With).
func (r *Result) withReg(in typestate.Store, reg rtl.Reg, depth int, ts typestate.Typestate) typestate.Store {
	if reg == rtl.ZeroReg {
		return in
	}
	return in.With(r.regSlot(reg, depth), ts)
}

// transfer is the abstract operational semantics R: M -> M of Section
// 4.2, driven by the instruction's effect shape: control and window
// effects classify the occurrence, memory effects resolve through
// transferMem, and plain assignments go through the overload
// resolution of Table 1. A node that changes no location returns in
// itself; one that does writes into a copy of it.
func (r *Result) transfer(node *cfg.Node, in typestate.Store, report func(int, string, string, ...interface{})) typestate.Store {
	d := node.Depth
	assign := node.Shape.Assign()
	hasCC := node.Shape.CC() != nil

	switch ctl := node.Shape.Ctl.(type) {
	case rtl.Branch:
		r.Kind[node.ID] = KindBranch
		return in
	case rtl.Call, rtl.Jump:
		if _, isCall := ctl.(rtl.Call); isCall {
			r.Kind[node.ID] = KindCall
		} else {
			r.Kind[node.ID] = KindRet
		}
		// The link write materializes the return address: a code
		// address the policy treats as an operable 32-bit value.
		if assign != nil {
			if _, isPC := assign.Src.(rtl.PC); isPC {
				return r.withReg(in, assign.Dst, d, typestate.Typestate{
					Type: types.UInt32Type, State: typestate.InitState, Access: typestate.PermO,
				})
			}
		}
		return in
	}

	switch node.Shape.Win {
	case +1:
		r.Kind[node.ID] = KindSave
		// New window: the in registers receive the old outs; locals and
		// outs become undefined; the new %sp is computed from the old one.
		win := r.conv.Window
		var newSP typestate.Typestate
		if bin, ok := assign.Src.(rtl.Bin); ok {
			newSP = scalarOp(r.exprTS(bin.A, d, in), r.exprTS(bin.B, d, in), bin.Op, true)
		}
		s := in.Clone()
		for k := rtl.Reg(0); k < rtl.Reg(win.Size); k++ {
			r.setReg(win.In+k, d+1, &s, r.regTS(win.Out+k, d, in))
		}
		for k := rtl.Reg(0); k < rtl.Reg(win.Size); k++ {
			r.setReg(win.Local+k, d+1, &s, typestate.BottomTS)
			if win.Out+k != r.conv.SP {
				r.setReg(win.Out+k, d+1, &s, typestate.BottomTS)
			}
		}
		r.setReg(assign.Dst, d+1, &s, newSP)
		return s

	case -1:
		r.Kind[node.ID] = KindRestore
		var val typestate.Typestate
		if bin, ok := assign.Src.(rtl.Bin); ok {
			val = scalarOp(r.exprTS(bin.A, d, in), r.exprTS(bin.B, d, in), bin.Op, true)
		}
		return r.withReg(in, assign.Dst, d-1, val)
	}

	if node.Shape.Mem != nil {
		return r.transferMem(node, in, report)
	}
	if assign == nil {
		return in
	}

	// Constant materialization (sethi): a copy, unless it is the
	// canonical nop (a zero write to the zero register).
	if c, ok := assign.Src.(rtl.Const); ok {
		if assign.Dst == rtl.ZeroReg && c.V == 0 {
			r.Kind[node.ID] = KindNop
			return in
		}
		r.Kind[node.ID] = KindCopy
		return r.withReg(in, assign.Dst, d, r.resolveAddr(constTS(c.V)))
	}

	// Arithmetic and logical operations.
	bin, ok := assign.Src.(rtl.Bin)
	if !ok {
		r.Kind[node.ID] = KindScalarOp
		return r.withReg(in, assign.Dst, d, typestate.BottomTS)
	}
	a := r.exprTS(bin.A, d, in)
	b := r.exprTS(bin.B, d, in)
	if hasCC && assign.Dst == rtl.ZeroReg {
		r.Kind[node.ID] = KindCompare
		return in
	}

	_, immB := bin.B.(rtl.Const)
	var out typestate.Typestate
	switch {
	case bin.Op == rtl.Or && isZeroReg(bin.A):
		// mov X,rd (synthetic): a pure copy.
		r.Kind[node.ID] = KindCopy
		out = b

	case (bin.Op == rtl.Add || bin.Op == rtl.Sub) &&
		(a.Type.Kind == types.ArrayBase || a.Type.Kind == types.ArrayIn) && b.Type.IsScalar():
		// Array-index calculation (Table 1, row 2): rd becomes t(n].
		r.Kind[node.ID] = KindArrayIndex
		out = typestate.Typestate{
			Type:   types.NewArrayIn(a.Type.Elem, a.Type.N),
			State:  a.State,
			Access: a.Access,
		}

	case bin.Op == rtl.Add &&
		(b.Type.Kind == types.ArrayBase || b.Type.Kind == types.ArrayIn) && a.Type.IsScalar():
		// Commuted array-index calculation.
		r.Kind[node.ID] = KindArrayIndex
		out = typestate.Typestate{
			Type:   types.NewArrayIn(b.Type.Elem, b.Type.N),
			State:  b.State,
			Access: b.Access,
		}

	case (bin.Op == rtl.Add || bin.Op == rtl.Sub) && !hasCC &&
		a.Type.Kind == types.Ptr && b.Known:
		// Field-address calculation: shift the points-to offsets.
		r.Kind[node.ID] = KindPtrOffset
		delta := int(b.ConstVal)
		if bin.Op == rtl.Sub {
			delta = -delta
		}
		out = typestate.Typestate{
			Type:   a.Type,
			State:  a.State.AddOffset(delta),
			Access: a.Access,
		}

	case (bin.Op == rtl.Add || bin.Op == rtl.Sub) && !hasCC && immB &&
		r.frameBase(bin.A) != 0 &&
		r.frameSlotAt(node, r.frameBase(bin.A), frameDelta(bin)) != nil:
		// Address of an annotated stack slot (local-array bases;
		// Section 6's stack-frame annotations).
		slot := r.frameSlotAt(node, r.frameBase(bin.A), frameDelta(bin))
		r.Kind[node.ID] = KindPtrOffset
		if slot.Count > 0 {
			out = typestate.Typestate{
				Type:   types.NewArrayBase(slot.Type, types.ConstBound(int64(slot.Count))),
				State:  typestate.PointsTo(false, typestate.Ref{Loc: slot.Name}),
				Access: typestate.PermF | typestate.PermO,
			}
		} else {
			out = typestate.Typestate{
				Type:   types.NewPtr(slot.Type),
				State:  typestate.PointsTo(false, typestate.Ref{Loc: slot.Name}),
				Access: typestate.PermF | typestate.PermO,
			}
		}

	case a.Type.IsPointer() && b.Type.IsPointer():
		// Pointer meets pointer: no meaningful typestate (Section 4.1).
		r.Kind[node.ID] = KindScalarOp
		out = typestate.BottomTS

	default:
		r.Kind[node.ID] = KindScalarOp
		out = scalarOp(a, b, bin.Op, false)
	}
	return r.withReg(in, assign.Dst, d, out)
}

// frameBase returns the frame or stack pointer when the expression reads
// one of the frame registers (0 otherwise).
func (r *Result) frameBase(e rtl.Expr) rtl.Reg {
	x, ok := e.(rtl.RegX)
	if !ok {
		return 0
	}
	if x.R == r.conv.FP || x.R == r.conv.SP {
		return x.R
	}
	return 0
}

// scalarOp computes the typestate of a scalar arithmetic result
// (Table 1, row 1): the meet of the operand typestates, with the constant
// refinement folded through the RTL operator semantics when both
// operands are known.
func scalarOp(a, b typestate.Typestate, op rtl.BinOp, keepType bool) typestate.Typestate {
	out := typestate.Typestate{
		Type:   types.Meet(a.Type, b.Type),
		State:  a.State.Meet(b.State),
		Access: a.Access.Meet(b.Access),
	}
	if keepType {
		// save/restore compute stack pointers; keep the first operand's
		// type when the meet degenerates.
		if out.Type.Kind == types.Bottom {
			out.Type = a.Type
		}
		if out.State.Kind == typestate.StateBottom &&
			a.State.Initialized() && b.State.Initialized() {
			out.State = typestate.InitState
		}
		if out.Access == 0 {
			out.Access = typestate.PermO
		}
	}
	if a.Known && b.Known {
		if v, ok := rtl.FoldBin(op, a.ConstVal, b.ConstVal); ok {
			out.Known = true
			out.ConstVal = v
		}
	}
	return out
}
