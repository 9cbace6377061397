package propagate

import (
	"sort"

	"mcsafe/internal/cfg"
	"mcsafe/internal/policy"
	"mcsafe/internal/rtl"
	"mcsafe/internal/types"
	"mcsafe/internal/typestate"
)

// frameDelta returns the effective immediate offset of an add/sub of a
// constant (the lifted form of `add/sub %fp, imm, rd`).
func frameDelta(bin rtl.Bin) int {
	c, ok := bin.B.(rtl.Const)
	if !ok {
		return 0
	}
	if bin.Op == rtl.Sub {
		return -int(c.V)
	}
	return int(c.V)
}

// frameSlots returns the stack-frame annotation slots of the node's
// procedure relative to %fp or %sp, by offset (nil when the procedure
// has no frame annotation).
func (r *Result) frameSlots(node *cfg.Node, base rtl.Reg) map[int]*policy.FrameSlot {
	fr := r.Frames[node.Proc]
	if fr == nil {
		return nil
	}
	key := "fp"
	if base == r.conv.SP {
		key = "sp"
	}
	return r.Ini.FrameSlots[fr.Proc][key]
}

// frameSlotAt looks up a stack-frame annotation slot for the node's
// procedure at the given %fp/%sp offset (exact match only).
func (r *Result) frameSlotAt(node *cfg.Node, base rtl.Reg, off int) *policy.FrameSlot {
	return r.frameSlots(node, base)[off]
}

// frameSlotCovering finds the slot whose extent covers the given offset
// (for direct [fp+imm] accesses into scalar slots or array slots).
// Offsets are scanned in sorted order so overlapping annotations resolve
// deterministically.
func (r *Result) frameSlotCovering(node *cfg.Node, base rtl.Reg, off, size int) (*policy.FrameSlot, int) {
	slots := r.frameSlots(node, base)
	offs := make([]int, 0, len(slots))
	for slotOff := range slots {
		offs = append(offs, slotOff)
	}
	sort.Ints(offs)
	for _, slotOff := range offs {
		slot := slots[slotOff]
		extent := slot.Type.Size()
		if slot.Count > 0 {
			extent = slot.Type.Size() * slot.Count
		}
		if off >= slotOff && off+size <= slotOff+extent {
			return slot, off - slotOff
		}
	}
	return nil, 0
}

// transferMem implements the abstract semantics of loads and stores
// (Table 1, row 3, and its load counterpart), including the strong/weak
// update distinction and overload resolution of the addressing mode.
// The access shape — width, direction, addressing mode — comes from the
// node's lifted memory effect.
func (r *Result) transferMem(node *cfg.Node, in typestate.Store, report func(int, string, string, ...interface{})) typestate.Store {
	d := node.Depth

	var addr rtl.Expr
	var size int
	var isStore, signed bool
	var rd rtl.Reg
	switch x := node.Shape.Mem.(type) {
	case rtl.Unsupported:
		report(node.ID, x.Code, "%s", x.Msg)
		return r.withReg(in, x.Dst, d, typestate.BottomTS)
	case rtl.Load:
		addr, size, signed = x.Addr, x.Size, x.Signed
		rd = x.Dst
	case rtl.Store:
		addr, size, isStore = x.Addr, x.Size, true
		if src, ok := x.Src.(rtl.RegX); ok {
			rd = src.R
		}
	}
	if isStore {
		r.Kind[node.ID] = KindStore
	} else {
		r.Kind[node.ID] = KindLoad
	}

	acc := &MemAccess{MinAlign: 1 << 30}
	r.Mem[node.ID] = acc

	// The lifted effective address is always base + operand2.
	bin := addr.(rtl.Bin)
	base := bin.A.(rtl.RegX).R
	var immOff int
	var idxReg rtl.Reg
	imm := false
	if c, ok := bin.B.(rtl.Const); ok {
		imm = true
		immOff = int(c.V)
		acc.IndexImm = int32(c.V)
	} else {
		idxReg = bin.B.(rtl.RegX).R
		acc.IndexReg = string(r.rm.Var(idxReg, d))
	}

	addTarget := func(locName string) {
		loc, ok := r.Ini.World.Lookup(locName)
		summary := false
		align := 1
		if ok {
			summary = loc.Summary
			align = loc.Align
		}
		for _, t := range acc.Targets {
			if t.Loc == locName {
				return
			}
		}
		acc.Targets = append(acc.Targets, Target{Loc: locName, Summary: summary})
		if align < acc.MinAlign {
			acc.MinAlign = align
		}
	}

	// Frame-relative accesses resolved through stack annotations.
	if (base == r.conv.FP || base == r.conv.SP) && imm {
		if slot, rel := r.frameSlotCovering(node, base, immOff, size); slot != nil {
			acc.Frame = true
			acc.IndexImm = int32(rel)
			if slot.Count > 0 {
				acc.Array = true
				acc.ElemType = slot.Type
				acc.Bound = types.ConstBound(int64(slot.Count))
			}
			addTarget(slot.Name)
			return r.finishMem(node, in, acc, isStore, rd, size, signed)
		}
	}

	a := r.regTS(base, d, in)
	acc.BaseVar = string(r.rm.Var(base, d))

	switch {
	case a.Type.Kind == types.ArrayBase || a.Type.Kind == types.ArrayIn:
		acc.Array = true
		acc.ElemType = a.Type.Elem
		acc.Bound = a.Type.N
		acc.BaseInterior = a.Type.Kind == types.ArrayIn
		if a.State.Kind != typestate.StatePointsTo {
			report(node.ID, "uninit", "array access through %s whose state is %v", r.rm.Name(base), a.State)
			break
		}
		acc.MayNull = a.State.MayNull
		if acc.ElemType.Size() != size {
			report(node.ID, "policy", "access width %d does not match array element %v", size, acc.ElemType)
		}
		for _, ref := range a.State.Set {
			addTarget(ref.Loc)
		}

	case a.Type.Kind == types.Ptr:
		if a.State.Kind != typestate.StatePointsTo {
			report(node.ID, "uninit", "pointer dereference through %s whose state is %v", r.rm.Name(base), a.State)
			break
		}
		acc.MayNull = a.State.MayNull
		if !imm {
			// A register-indexed access into a non-array object cannot
			// be resolved to fields.
			idx := r.regTS(idxReg, d, in)
			if !idx.Known {
				report(node.ID, "policy", "register-indexed access into non-array object")
				break
			}
			immOff = int(idx.ConstVal)
		}
		for _, ref := range a.State.Set {
			declared := r.Ini.LocTypes[ref.Loc]
			if declared == nil {
				report(node.ID, "policy", "dereference of pointer to unknown location %q", ref.Loc)
				continue
			}
			off := ref.Off + immOff
			if declared.Kind == types.Struct || declared.Kind == types.Union {
				fields := types.LookUp(declared, off, size)
				if len(fields) == 0 {
					report(node.ID, "oob", "no field of %v at offset %d size %d", declared, off, size)
					continue
				}
				for _, f := range fields {
					addTarget(ref.Loc + "." + f.Path)
				}
			} else {
				if off != 0 || declared.Size() != size {
					report(node.ID, "oob", "bad scalar access at offset %d size %d of %v", off, size, declared)
					continue
				}
				addTarget(ref.Loc)
			}
		}

	default:
		report(node.ID, "policy", "memory access through non-pointer %s of type %v", r.rm.Name(base), a.Type)
	}

	return r.finishMem(node, in, acc, isStore, rd, size, signed)
}

// finishMem applies the load/store effect once the target set F is
// known. An empty F is annotation's to report (its local check on the
// access); here it only leaves a loaded register unknown.
func (r *Result) finishMem(node *cfg.Node, in typestate.Store, acc *MemAccess, isStore bool, rd rtl.Reg, size int, signed bool) typestate.Store {
	d := node.Depth
	if acc.MinAlign == 1<<30 {
		acc.MinAlign = 1
	}
	if len(acc.Targets) == 0 {
		if !isStore {
			return r.withReg(in, rd, d, typestate.BottomTS)
		}
		return in
	}

	if isStore {
		val := r.regTS(rd, d, in)
		strong := len(acc.Targets) == 1 && !acc.Targets[0].Summary
		s := in
		for _, t := range acc.Targets {
			ts := val
			if !strong {
				ts = val.Meet(in.Get(t.Loc))
			}
			s = s.With(r.locs.Index(t.Loc), ts)
		}
		return s
	}

	// Load: the destination receives the meet over possible sources.
	loaded := typestate.TopTS
	for _, t := range acc.Targets {
		loaded = loaded.Meet(in.Get(t.Loc))
	}
	// Sub-word loads refine the ground type (footnote 2's subtyping).
	switch {
	case size == 1 && !signed:
		loaded.Type = types.Meet(loaded.Type, types.UInt8Type)
	case size == 1 && signed:
		loaded.Type = types.Meet(loaded.Type, types.Int8Type)
	case size == 2 && !signed:
		loaded.Type = types.Meet(loaded.Type, types.UInt16Type)
	case size == 2 && signed:
		loaded.Type = types.Meet(loaded.Type, types.Int16Type)
	}
	loaded.Known = false
	return r.withReg(in, rd, d, loaded)
}
