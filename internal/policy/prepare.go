package policy

import (
	"fmt"
	"sort"

	"mcsafe/internal/expr"
	"mcsafe/internal/rtl"
	"mcsafe/internal/types"
	"mcsafe/internal/typestate"
)

// Initial is the output of Phase 1 (preparation): the host-typestate
// specification, safety policy, and invocation specification translated
// into initial annotations — an abstract-location world, the abstract
// store at the program entry, and the initial linear constraints
// (Figure 2 of the paper).
type Initial struct {
	Spec  *Spec
	World *typestate.World
	// Entry is the abstract store at the entry of the untrusted code.
	Entry typestate.Store
	// Constraints is the conjunction of the initial linear constraints.
	Constraints expr.Formula
	// AddrToLoc maps the virtual address of a global entity to its
	// abstract location, mirroring a loader's symbol table.
	AddrToLoc map[uint32]string
	// LocTypes records the declared type of each abstract memory
	// location (used by lookUp during typestate propagation).
	LocTypes map[string]*types.Type
	// FrameSlots indexes frame annotations: proc -> base("fp"/"sp") ->
	// offset -> slot.
	FrameSlots map[string]map[string]map[int]*FrameSlot
	// SlotCounts records element counts for local-array summary
	// locations (location name -> count).
	SlotCounts map[string]int
}

// Prepare runs Phase 1.
func Prepare(spec *Spec) (*Initial, error) {
	ini := &Initial{
		Spec:       spec,
		World:      typestate.NewWorld(),
		Entry:      typestate.NewStore(typestate.NewLocs()),
		AddrToLoc:  make(map[uint32]string),
		LocTypes:   make(map[string]*types.Type),
		FrameSlots: make(map[string]map[string]map[int]*FrameSlot),
		SlotCounts: make(map[string]int),
	}

	rm := spec.Arch.Regs()
	conv := spec.Arch.Conv()

	// Registers of the entry window.
	for r := 0; r < rm.N(); r++ {
		ini.World.AddReg(rm.Loc(rtl.Reg(r), 0))
	}
	// Ghost condition-code pair.
	ini.World.AddReg(string(ICCA))
	ini.World.AddReg(string(ICCB))

	// Memory-location entities.
	for _, ent := range spec.Entities {
		if ent.IsVal {
			continue
		}
		if err := ini.addEntityLocs(ent); err != nil {
			return nil, err
		}
		if ent.Addr != 0 {
			ini.AddrToLoc[ent.Addr] = ent.Name
		}
	}

	// Frame annotations.
	for _, fr := range spec.Frames {
		byBase := map[string]map[int]*FrameSlot{"fp": {}, "sp": {}}
		ini.FrameSlots[fr.Proc] = byBase
		for i := range fr.Slots {
			slot := &fr.Slots[i]
			byBase[slot.Base][slot.Off] = slot
			al := slot.Type.Align()
			loc := &typestate.AbsLoc{
				Name: slot.Name, Size: slot.Type.Size(), Align: al,
				Readable: true, Writable: true, Summary: slot.Count > 0,
			}
			if err := ini.World.Add(loc); err != nil {
				return nil, fmt.Errorf("policy: frame %s: %v", fr.Proc, err)
			}
			ini.LocTypes[slot.Name] = slot.Type
			if slot.Count > 0 {
				ini.SlotCounts[slot.Name] = slot.Count
			}
			ini.Entry.SetInPlace(slot.Name, typestate.Typestate{
				Type: slot.Type, State: slot.State, Access: typestate.PermO,
			})
		}
	}

	// Invocation bindings, in register order so the constraint
	// conjunction (and everything rendered from it downstream) is
	// deterministic across runs.
	invokeRegs := make([]rtl.Reg, 0, len(spec.Invoke))
	for reg := range spec.Invoke {
		invokeRegs = append(invokeRegs, reg)
	}
	sort.Slice(invokeRegs, func(i, j int) bool { return invokeRegs[i] < invokeRegs[j] })
	boundRegs := map[rtl.Reg]bool{}
	var constraints []expr.Formula
	constraints = append(constraints, spec.Constraints...)
	for _, reg := range invokeRegs {
		name := spec.Invoke[reg]
		boundRegs[reg] = true
		locName := rm.Loc(reg, 0)
		if ent := spec.Entity(name); ent != nil {
			perm := typestate.PermO
			if ent.Region != "" {
				perm = spec.permsFor(ent.Region, ent.Type).ValuePerms()
			}
			ini.Entry.SetInPlace(locName, typestate.Typestate{
				Type: ent.Type, State: ent.State, Access: perm,
			})
			continue
		}
		// Symbolic integer: the register's value equals the symbol.
		ini.Entry.SetInPlace(locName, typestate.Typestate{
			Type: types.Int32Type, State: typestate.InitState, Access: typestate.PermO,
		})
		constraints = append(constraints,
			expr.EqExpr(expr.V(rm.Var(reg, 0)), expr.V(expr.Var(name))))
	}

	// Implicit machine state: the zero register reads as zero; the stack,
	// frame, and link registers are valid initialized words.
	if !boundRegs[rtl.ZeroReg] {
		ini.Entry.SetInPlace(rm.Loc(rtl.ZeroReg, 0), typestate.Typestate{
			Type: types.Int32Type, State: typestate.InitState, Access: typestate.PermO,
		})
	}
	for _, r := range conv.InitRegs {
		if !boundRegs[r] {
			ini.Entry.SetInPlace(rm.Loc(r, 0), typestate.Typestate{
				Type: types.UInt32Type, State: typestate.InitState, Access: typestate.PermO,
			})
		}
	}

	ini.Constraints = expr.Simplify(expr.Conj(constraints...))
	return ini, nil
}

// addEntityLocs creates the abstract location(s) for a memory entity,
// expanding struct entities into field-granular locations.
func (ini *Initial) addEntityLocs(ent *Entity) error {
	spec := ini.Spec
	t := ent.Type
	align := ent.Align
	if align == 0 {
		align = t.Align()
	}
	locPerm := spec.permsFor(ent.Region, t)
	switch t.Kind {
	case types.Struct:
		// The aggregate itself, for lookUp resolution.
		ini.LocTypes[ent.Name] = t
		agg := &typestate.AbsLoc{
			Name: ent.Name, Size: t.Size(), Align: align,
			Readable: true, Writable: true, Summary: ent.Summary,
			Region: ent.Region,
		}
		if err := ini.World.Add(agg); err != nil {
			return err
		}
		// Enumerate scalar fields.
		var walk func(st *types.Type, prefix string, off int) error
		walk = func(st *types.Type, prefix string, off int) error {
			for _, m := range st.Members {
				path := m.Label
				if prefix != "" {
					path = prefix + "." + m.Label
				}
				if m.Type.Kind == types.Struct || m.Type.Kind == types.Union {
					if err := walk(m.Type, path, off+m.Offset); err != nil {
						return err
					}
					continue
				}
				name := ent.Name + "." + path
				perm, found := spec.permsForField(ent.Region, t.Name, path)
				if !found {
					perm = spec.permsFor(ent.Region, m.Type)
				}
				loc := &typestate.AbsLoc{
					Name: name, Size: m.Type.Size(), Align: gcdAlign(align, off+m.Offset, m.Type.Align()),
					Readable: perm.Has(typestate.PermR),
					Writable: perm.Has(typestate.PermW),
					Summary:  ent.Summary,
					Region:   ent.Region,
				}
				if err := ini.World.Add(loc); err != nil {
					return err
				}
				ini.LocTypes[name] = m.Type
				state := ent.State
				if fs, ok := ent.FieldStates[path]; ok {
					state = fs
				} else if state.Kind == typestate.StatePointsTo {
					// A struct-level points-to state makes no sense
					// per-field; default to uninit.
					state = typestate.UninitState
				}
				ini.Entry.SetInPlace(name, typestate.Typestate{
					Type: m.Type, State: state, Access: perm.ValuePerms(),
				})
			}
			return nil
		}
		return walk(t, "", 0)

	default:
		loc := &typestate.AbsLoc{
			Name: ent.Name, Size: t.Size(), Align: align,
			Readable: locPerm.Has(typestate.PermR),
			Writable: locPerm.Has(typestate.PermW),
			Summary:  ent.Summary,
			Region:   ent.Region,
		}
		if err := ini.World.Add(loc); err != nil {
			return err
		}
		ini.LocTypes[ent.Name] = t
		ini.Entry.SetInPlace(ent.Name, typestate.Typestate{
			Type: t, State: ent.State, Access: locPerm.ValuePerms(),
		})
		return nil
	}
}

// gcdAlign computes the guaranteed alignment of a field at the given
// offset within an aggregate of the given alignment.
func gcdAlign(aggAlign, offset, natural int) int {
	if aggAlign <= 0 {
		return natural
	}
	a := aggAlign
	for offset%a != 0 {
		a /= 2
		if a <= 1 {
			return 1
		}
	}
	if natural < a {
		return natural
	}
	return a
}
