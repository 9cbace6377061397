package difftest

import (
	"fmt"
	"math/rand"
	"sort"

	"mcsafe/internal/expr"
	"mcsafe/internal/isa"
	"mcsafe/internal/policy"
	"mcsafe/internal/rtl"
	"mcsafe/internal/types"
	"mcsafe/internal/typestate"
)

// A Region is one contiguous span of concretely-allocated host memory
// with the access rights the policy grants the untrusted code on it.
type Region struct {
	Name   string
	Lo, Hi uint32 // [Lo, Hi)
	// Uniform access rights (arrays, scalars, the stack).
	Read, Write bool
	// Fields, when non-empty, carve the region into struct members with
	// per-field rights; an access must fall inside a single field.
	Fields []FieldPerm
}

// FieldPerm is the byte range and rights of one struct member.
type FieldPerm struct {
	Name        string
	Off, Size   int
	Read, Write bool
}

// Trap is one dynamic safety violation observed by the interpreter: the
// concrete counterpart of the checker's default safety conditions.
type Trap struct {
	Kind  string // "oob", "misalign", or "perm"
	Addr  uint32
	Size  int
	Write bool
	PC    int
}

func (t *Trap) String() string {
	acc := "read"
	if t.Write {
		acc = "write"
	}
	return fmt.Sprintf("%s trap: %d-byte %s at 0x%x (insn %d)", t.Kind, t.Size, acc, t.Addr, t.PC)
}

// World is one concrete host environment drawn from a policy
// specification: a memory image, the invocation-register values, and the
// access-rights map the trap classifier consults. It is the dynamic
// analogue of Phase 1's initial annotations.
type World struct {
	Regions []Region
	Regs    map[rtl.Reg]uint32
	Syms    map[string]int64

	mem  map[uint32]byte
	spec *policy.Spec
	rng  *rand.Rand
}

const (
	// dataBase is where entity allocations start: far from address 0 (so
	// null-pointer offsets fault), from the code (isa.DefaultBase), and from
	// the stack.
	dataBase = 0x00200000
	// regionGap separates allocations so small out-of-bounds offsets
	// land in unmapped space instead of a neighbouring region.
	regionGap = 64
	// stackTop is the initial stack pointer; the stack region extends
	// stackSize below it and a small caller-frame area above it.
	stackTop   = 0x7f000000
	stackSize  = 0x10000
	stackAbove = 0x400
)

// BuildWorld draws one concrete environment for a program checked
// against spec. It fails only when the specification's symbol
// constraints cannot be satisfied by a small random search.
func BuildWorld(spec *policy.Spec, r *rand.Rand) (*World, error) {
	w := &World{
		Regs: make(map[rtl.Reg]uint32),
		Syms: make(map[string]int64),
		mem:  make(map[uint32]byte),
		spec: spec,
		rng:  r,
	}
	if err := w.chooseSymbols(); err != nil {
		return nil, err
	}

	// The stack: the invocation hands the untrusted code a valid stack
	// pointer.
	w.Regions = append(w.Regions, Region{
		Name: "stack", Lo: stackTop - stackSize, Hi: stackTop + stackAbove,
		Read: true, Write: true,
	})
	w.Regs[spec.Arch.Conv().SP] = stackTop

	valAddr, err := w.allocateEntities()
	if err != nil {
		return nil, err
	}

	// Invocation: registers carry entity addresses and symbol values.
	for reg, name := range spec.Invoke {
		if v, ok := valAddr[name]; ok {
			w.Regs[reg] = v
		} else if v, ok := w.Syms[name]; ok {
			w.Regs[reg] = uint32(v)
		} else {
			return nil, fmt.Errorf("invoke %s = %s: unknown entity or symbol", spec.Arch.Regs().Name(reg), name)
		}
	}
	return w, nil
}

// chooseSymbols draws values for the specification's symbolic integers
// until every constraint whose free variables are all symbols holds.
func (w *World) chooseSymbols() error {
	var names []string
	for s := range w.spec.Symbols {
		names = append(names, s)
	}
	// Sorted, so the rng draw order (and thus every generated world) is
	// independent of map iteration order.
	sort.Strings(names)
	// Gather the constraints decidable from symbols alone; constraints
	// over entity contents (e.g. val(tmr.count) >= 0) are honoured by
	// construction: all generated contents are small non-negative ints.
	symSet := make(map[expr.Var]bool, len(names))
	for _, s := range names {
		symSet[expr.Var(s)] = true
	}
	var cons []expr.Formula
	for _, c := range w.spec.Constraints {
		free := map[expr.Var]bool{}
		c.FreeVars(free)
		all := true
		for v := range free {
			if !symSet[v] {
				all = false
			}
		}
		if all {
			cons = append(cons, c)
		}
	}
	for attempt := 0; attempt < 4096; attempt++ {
		env := make(map[expr.Var]int64, len(names))
		for _, s := range names {
			v := int64(w.rng.Intn(9)) // 0..8: small arrays, fast runs
			env[expr.Var(s)] = v
		}
		ok := true
		for _, c := range cons {
			if !c.Eval(env, nil) {
				ok = false
				break
			}
		}
		if ok {
			for _, s := range names {
				w.Syms[s] = env[expr.Var(s)]
			}
			return nil
		}
	}
	return fmt.Errorf("no symbol assignment satisfies the constraints")
}

// typePerm unions the rights every type-category rule grants t in region.
func (w *World) typePerm(region string, t *types.Type) typestate.Perm {
	return w.spec.PermsFor(region, t)
}

// fieldPerm unions field-category rules for struct.field with the
// type-category rules for the field's type.
func (w *World) fieldPerm(region, structName, field string, ft *types.Type) typestate.Perm {
	var p typestate.Perm
	for _, rule := range w.spec.Rules {
		if rule.Region == region && rule.CatStruct == structName && rule.CatField == field {
			p |= rule.Perm
		}
	}
	return p | w.typePerm(region, ft)
}

// allocateEntities lays out every entity the invocation can reach and
// returns the concrete value of each "val" entity.
func (w *World) allocateEntities() (map[string]uint32, error) {
	cursor := uint32(dataBase)
	alloc := func(size int, align uint32) uint32 {
		if align == 0 {
			align = 8
		}
		cursor = (cursor + align - 1) &^ (align - 1)
		base := cursor
		cursor += uint32(size) + regionGap
		return base
	}

	// locInstances[loc] holds the base addresses of the concrete
	// instances standing for an abstract (possibly summary) location.
	locInstances := make(map[string][]uint32)
	valAddr := make(map[string]uint32)
	// arrayElem marks locs materialized as the elements of an array
	// region in the first pass; the second pass must not re-allocate them
	// as standalone scalars.
	arrayElem := make(map[string]bool)

	// First pass: allocate instances for every abstract location that
	// is the referent of some pointer- or array-typed val.
	for _, e := range w.spec.Entities {
		if !e.IsVal || e.State.Kind != typestate.StatePointsTo {
			continue
		}
		for _, ref := range e.State.Set {
			locEnt := w.spec.Entity(ref.Loc)
			if locEnt == nil || len(locInstances[ref.Loc]) > 0 {
				continue
			}
			count := 1
			if locEnt.Summary {
				count = 2 + w.rng.Intn(3)
			}
			elem := w.instanceType(e, locEnt)
			if elem == nil {
				continue
			}
			if e.Type != nil && (e.Type.Kind == types.ArrayBase || e.Type.Kind == types.ArrayIn) {
				// The val is the array pointer; the loc is the element
				// summary. One region holds the whole array.
				n := w.boundValue(e.Type.N)
				base := alloc(int(n)*elem.Size(), uint32(elem.Align()))
				w.Regions = append(w.Regions, Region{
					Name: e.Name, Lo: base, Hi: base + uint32(int64(elem.Size())*n),
					Read:  w.arrayPerm(e, elem).Has(typestate.PermR),
					Write: w.arrayPerm(e, elem).Has(typestate.PermW),
				})
				for i := int64(0); i < n; i++ {
					w.initScalar(base+uint32(i*int64(elem.Size())), elem, locEnt.State)
				}
				locInstances[ref.Loc] = []uint32{base}
				arrayElem[ref.Loc] = true
				valAddr[e.Name] = base
				continue
			}
			// Pointer to scalar or struct: allocate count instances.
			var bases []uint32
			for i := 0; i < count; i++ {
				bases = append(bases, alloc(elem.Size(), uint32(elem.Align())))
			}
			locInstances[ref.Loc] = bases
		}
	}

	// Second pass: fill struct instances (now that every referent loc
	// has addresses, pointer fields can be wired) and build their
	// per-field permission tables.
	for _, e := range w.spec.Entities {
		if e.IsVal {
			continue
		}
		bases := locInstances[e.Name]
		if len(bases) == 0 || e.Type == nil || arrayElem[e.Name] {
			continue
		}
		if e.Type.Kind == types.Struct {
			for i, base := range bases {
				w.fillStruct(e, base, i, locInstances)
			}
		} else if e.Type.Kind == types.Ground {
			// Scalar instances reached through a non-array pointer val.
			for _, base := range bases {
				w.initScalar(base, e.Type, e.State)
				p := w.typePerm(e.Region, e.Type)
				w.Regions = append(w.Regions, Region{
					Name: e.Name, Lo: base, Hi: base + uint32(e.Type.Size()),
					Read: p.Has(typestate.PermR), Write: p.Has(typestate.PermW),
				})
			}
		}
	}

	// Third pass: resolve pointer vals to one of their referents.
	for _, e := range w.spec.Entities {
		if !e.IsVal || e.State.Kind != typestate.StatePointsTo {
			continue
		}
		if _, done := valAddr[e.Name]; done {
			continue
		}
		var candidates []uint32
		for _, ref := range e.State.Set {
			for _, base := range locInstances[ref.Loc] {
				candidates = append(candidates, base+uint32(ref.Off))
			}
		}
		switch {
		case e.State.MayNull && (len(candidates) == 0 || w.rng.Intn(4) == 0):
			valAddr[e.Name] = 0
		case len(candidates) > 0:
			valAddr[e.Name] = candidates[w.rng.Intn(len(candidates))]
		default:
			return nil, fmt.Errorf("val %s: no concrete referent for %v", e.Name, e.State)
		}
	}
	return valAddr, nil
}

// instanceType resolves the element type concrete instances of locEnt
// should have, preferring the loc's own declared type and falling back
// to the val's pointee/element type.
func (w *World) instanceType(val *policy.Entity, locEnt *policy.Entity) *types.Type {
	if locEnt.Type != nil {
		return locEnt.Type
	}
	if val.Type == nil {
		return nil
	}
	switch val.Type.Kind {
	case types.Ptr, types.ArrayBase, types.ArrayIn:
		return val.Type.Elem
	}
	return nil
}

// arrayPerm unions the rights on the array type and its element type.
func (w *World) arrayPerm(val *policy.Entity, elem *types.Type) typestate.Perm {
	return w.typePerm(val.Region, val.Type) | w.typePerm(val.Region, elem)
}

// boundValue resolves an array bound against the chosen symbol values.
func (w *World) boundValue(b types.Bound) int64 {
	if b.IsConst() {
		return b.Const
	}
	return w.Syms[b.Name]
}

// initScalar writes a fresh scalar value: small and non-negative so that
// content constraints of the form val(...) >= 0 hold by construction;
// uninitialized locations are zero-filled (the oracle does not flag
// uninitialized reads — see package comment).
func (w *World) initScalar(addr uint32, t *types.Type, st typestate.State) {
	v := uint32(w.rng.Intn(17))
	if st.Kind == typestate.StateUninit {
		v = 0
	}
	w.spec.Arch.Traits().ByteOrder.Store(w.mem, addr, t.Size(), v)
}

// fillStruct initializes instance idx of a struct location: scalar
// members get fresh values, pointer members are wired to a later
// instance of a referent location (or null) so that every generated heap
// is acyclic, and the per-field rights table is recorded.
func (w *World) fillStruct(e *policy.Entity, base uint32, idx int, locInstances map[string][]uint32) {
	region := Region{Name: fmt.Sprintf("%s#%d", e.Name, idx), Lo: base, Hi: base + uint32(e.Type.Size())}
	for _, m := range e.Type.Members {
		p := w.fieldPerm(e.Region, e.Type.Name, m.Label, m.Type)
		region.Fields = append(region.Fields, FieldPerm{
			Name: m.Label, Off: m.Offset, Size: m.Type.Size(),
			Read: p.Has(typestate.PermR), Write: p.Has(typestate.PermW),
		})
		st, ok := e.FieldStates[m.Label]
		if !ok {
			st = e.State
		}
		if m.Type.Kind == types.Ptr && st.Kind == typestate.StatePointsTo {
			ref := w.pickReferent(e.Name, idx, st, locInstances)
			w.spec.Arch.Traits().ByteOrder.Store(w.mem, base+uint32(m.Offset), 4, ref)
			continue
		}
		w.initScalar(base+uint32(m.Offset), m.Type, st)
	}
	w.Regions = append(w.Regions, region)
}

// pickReferent chooses a concrete target for a pointer field of instance
// idx. Self-referential fields only point forward (to higher-index
// instances) or to null, so lists and trees always terminate.
func (w *World) pickReferent(owner string, idx int, st typestate.State, locInstances map[string][]uint32) uint32 {
	var candidates []uint32
	for _, ref := range st.Set {
		for i, base := range locInstances[ref.Loc] {
			if ref.Loc == owner && i <= idx {
				continue
			}
			candidates = append(candidates, base+uint32(ref.Off))
		}
	}
	if st.MayNull && (len(candidates) == 0 || w.rng.Intn(3) == 0) {
		return 0
	}
	if len(candidates) == 0 {
		return 0
	}
	return candidates[w.rng.Intn(len(candidates))]
}

// Classify maps one memory access to a trap, or nil when the access is
// legal under the world's rights map. It under-approximates traps: an
// access is flagged only when it is misaligned, outside every allocated
// region, or denied by the policy's access rights, so a flagged access
// on a checker-approved program is always a genuine counterexample.
func (w *World) Classify(addr uint32, size int, write bool) *Trap {
	if size > 1 && addr%uint32(size) != 0 {
		return &Trap{Kind: "misalign", Addr: addr, Size: size, Write: write}
	}
	end := uint64(addr) + uint64(size)
	for ri := range w.Regions {
		r := &w.Regions[ri]
		if uint64(addr) < uint64(r.Lo) || end > uint64(r.Hi) {
			continue
		}
		if len(r.Fields) == 0 {
			if write && !r.Write || !write && !r.Read {
				return &Trap{Kind: "perm", Addr: addr, Size: size, Write: write}
			}
			return nil
		}
		off := int(addr - r.Lo)
		for _, f := range r.Fields {
			if off >= f.Off && off+size <= f.Off+f.Size {
				if write && !f.Write || !write && !f.Read {
					return &Trap{Kind: "perm", Addr: addr, Size: size, Write: write}
				}
				return nil
			}
		}
		return &Trap{Kind: "perm", Addr: addr, Size: size, Write: write}
	}
	return &Trap{Kind: "oob", Addr: addr, Size: size, Write: write}
}

// Exec runs prog in this world. It returns the first trap observed, or
// nil with a reason string when the run was trap-free ("exit") or
// inconclusive ("steps", or an interpreter fault outside the oracle's
// trap set, e.g. division by zero on a mutant).
func (w *World) Exec(prog *isa.Program, maxSteps int) (*Trap, string) {
	m := isa.NewMachine(prog)
	for addr, b := range w.mem {
		m.Mem[addr] = b
	}
	for reg, v := range w.Regs {
		m.SetReg(reg, v)
	}
	var trap *Trap
	m.OnMem = func(addr uint32, size int, write bool) {
		if trap == nil {
			if t := w.Classify(addr, size, write); t != nil {
				t.PC = m.PC
				trap = t
			}
		}
	}
	m.HostCall = w.hostCall
	for n := 0; n < maxSteps; n++ {
		if err := m.Step(); err != nil {
			if trap != nil {
				return trap, ""
			}
			if err == isa.ErrExit {
				return nil, "exit"
			}
			return nil, err.Error()
		}
		if trap != nil {
			return trap, ""
		}
	}
	return nil, "steps"
}

// hostCall simulates a trusted host function: it picks a return value
// satisfying the function's postcondition. Any concrete behaviour
// consistent with the spec is a legal host, so the specific choice only
// affects coverage, not soundness.
func (w *World) hostCall(name string, m *isa.Machine) {
	tf := w.spec.Trusted[name]
	if tf == nil || tf.Ret == nil {
		return // void (or unknown) host function: registers untouched
	}
	ret := w.spec.Arch.Conv().RetReg
	retVar := w.spec.Arch.Regs().Var(ret, 0)
	for attempt := 0; attempt < 64; attempt++ {
		v := int64(w.rng.Intn(17))
		if tf.Post == nil || tf.Post.Eval(map[expr.Var]int64{retVar: v}, nil) {
			m.SetReg(ret, uint32(v))
			return
		}
	}
	m.SetReg(ret, 1) // safe default for >=/!= style postconditions
}
