package sparc

import (
	"fmt"

	"mcsafe/internal/isa"
	"mcsafe/internal/rtl"
)

// Machine is a concrete SPARC V8 interpreter over the decoded
// instruction stream. It exists for differential testing: the abstract
// operational semantics of the checker (typestate propagation, wlp) are
// validated against real executions on random inputs.
//
// The instruction semantics are not written here: Step executes each
// instruction's lifted RTL effect sequence (Program.Insns[pc].RTL, see
// lift.go), so the interpreter, typestate propagation, and WLP
// generation all consume the same per-opcode definition. Only the machine-state plumbing —
// register windows, sparse memory, delayed control transfer, external
// calls — lives in this file.
//
// The model is deliberately small: 32-bit integer registers with eight
// register windows, a word-addressed sparse memory, and the integer
// condition codes. Traps, floating point, and alternate address spaces
// are out of scope, exactly as they are for the checker.
type Machine struct {
	prog *isa.Program

	// windows[w][r] for windowed registers; globals shared.
	globals [8]uint32
	windows [][16]uint32 // %o0-%o7 then %l0-%l7 per window
	cwp     int

	// Mem is sparse byte memory.
	Mem map[uint32]byte

	// Condition codes.
	N, Z, V, C bool

	// PC is the current instruction index; npc the next (for delayed
	// control transfers).
	pc, npc int

	// Steps executed (guard against runaway loops in tests).
	Steps int

	// pendingHost carries an external call across its delay slot;
	// labels names its target, the least label at each index.
	pendingHost string
	labels      map[int]string

	// OnMem, when set, observes every data-memory access (differential
	// tests use it to assert memory safety of checker-approved code).
	OnMem func(addr uint32, size int, write bool)

	// HostCall, when set, simulates calls to external (trusted host)
	// symbols: it runs after the delay slot, and control resumes at the
	// call's return point. When nil, external calls return 0 in %o0.
	HostCall func(name string, m *Machine)
}

// NewMachine creates an interpreter for a program with 32 register
// windows' worth of space (enough for the checker's non-recursive
// programs).
func NewMachine(p *isa.Program) *Machine {
	m := &Machine{
		prog:    p,
		labels:  p.Labels(),
		windows: make([][16]uint32, 32),
		cwp:     16, // middle of the window stack
		Mem:     make(map[uint32]byte),
		pc:      p.Entry,
		npc:     p.Entry + 1,
	}
	return m
}

// regIndex resolves a register to its storage.
func (m *Machine) get(r Reg) uint32 {
	switch {
	case r == G0:
		return 0
	case r < 8:
		return m.globals[r]
	case r < 24: // %o, %l of current window
		return m.windows[m.cwp][r-8]
	default: // %i = %o of previous window
		return m.windows[m.cwp+1][r-24]
	}
}

func (m *Machine) set(r Reg, v uint32) {
	switch {
	case r == G0:
	case r < 8:
		m.globals[r] = v
	case r < 24:
		m.windows[m.cwp][r-8] = v
	default:
		m.windows[m.cwp+1][r-24] = v
	}
}

// SetReg sets a register (for test setup).
func (m *Machine) SetReg(r Reg, v uint32) { m.set(r, v) }

// Reg reads a register (for test assertions).
func (m *Machine) Reg(r Reg) uint32 { return m.get(r) }

// Store32/Load32 access the sparse memory.
func (m *Machine) Store32(addr uint32, v uint32) {
	m.Mem[addr] = byte(v >> 24)
	m.Mem[addr+1] = byte(v >> 16)
	m.Mem[addr+2] = byte(v >> 8)
	m.Mem[addr+3] = byte(v)
}

func (m *Machine) Load32(addr uint32) uint32 {
	return uint32(m.Mem[addr])<<24 | uint32(m.Mem[addr+1])<<16 |
		uint32(m.Mem[addr+2])<<8 | uint32(m.Mem[addr+3])
}

// loadRaw reads size bytes big-endian (unextended).
func (m *Machine) loadRaw(addr uint32, size int) uint32 {
	switch size {
	case 1:
		return uint32(m.Mem[addr])
	case 2:
		return uint32(m.Mem[addr])<<8 | uint32(m.Mem[addr+1])
	}
	return m.Load32(addr)
}

// storeRaw writes the low size bytes of v big-endian.
func (m *Machine) storeRaw(addr uint32, size int, v uint32) {
	switch size {
	case 1:
		m.Mem[addr] = byte(v)
	case 2:
		m.Mem[addr] = byte(v >> 8)
		m.Mem[addr+1] = byte(v)
	default:
		m.Store32(addr, v)
	}
}

// ErrExit is returned by Run when the program returns from its entry
// procedure (a return with no caller).
var ErrExit = fmt.Errorf("sparc: program exited")

// exitPC is the sentinel "return address" of the entry frame.
const exitPC = -1

// Step executes one instruction by interpreting its RTL effects. It
// returns ErrExit on a return past the entry frame, or an error for
// faults (out-of-range PC, window underflow, division by zero).
func (m *Machine) Step() error {
	if m.pc == exitPC {
		return ErrExit
	}
	if m.pc < 0 || m.pc >= len(m.prog.Insns) {
		return fmt.Errorf("sparc: PC %d out of range", m.pc)
	}
	m.Steps++
	effs := m.prog.Insns[m.pc].RTL
	if effs == nil {
		return fmt.Errorf("sparc: no semantics for %q", m.prog.Insns[m.pc].Text)
	}
	pc, npc := m.npc, m.npc+1
	pcAddr := m.prog.AddrOf(m.pc)
	eval := func(e rtl.Expr) (uint32, error) {
		v, err := rtl.EvalExpr(e, func(r rtl.Reg) uint32 { return m.get(Reg(r)) }, pcAddr)
		if err != nil {
			return 0, fmt.Errorf("sparc: %v", err)
		}
		return v, nil
	}

	// Phase 1: evaluate all sources in the pre-state, record the
	// pending writes, and resolve control. No machine state changes
	// until every effect has evaluated without fault.
	type regWrite struct {
		dst Reg
		val uint32
	}
	var writes []regWrite
	var stores []struct {
		addr uint32
		size int
		val  uint32
	}
	var ccSet bool
	var ccN, ccZ, ccV, ccC bool
	winShift := 0
	isCall := false
	pendingHost := ""

	for _, eff := range effs {
		switch x := eff.(type) {
		case rtl.Assign:
			v, err := eval(x.Src)
			if err != nil {
				return err
			}
			writes = append(writes, regWrite{Reg(x.Dst), v})

		case rtl.Load:
			addr, err := eval(x.Addr)
			if err != nil {
				return err
			}
			if m.OnMem != nil {
				m.OnMem(addr, x.Size, false)
			}
			raw := m.loadRaw(addr, x.Size)
			writes = append(writes, regWrite{Reg(x.Dst), rtl.Extend(raw, x.Size, x.Signed)})

		case rtl.Store:
			addr, err := eval(x.Addr)
			if err != nil {
				return err
			}
			v, err := eval(x.Src)
			if err != nil {
				return err
			}
			if m.OnMem != nil {
				m.OnMem(addr, x.Size, true)
			}
			stores = append(stores, struct {
				addr uint32
				size int
				val  uint32
			}{addr, x.Size, v})

		case rtl.SetCC:
			a, err := eval(x.A)
			if err != nil {
				return err
			}
			b, err := eval(x.B)
			if err != nil {
				return err
			}
			n, z, v, c, err := rtl.EvalCC(x.Op, a, b)
			if err != nil {
				return fmt.Errorf("sparc: %v", err)
			}
			ccSet, ccN, ccZ, ccV, ccC = true, n, z, v, c

		case rtl.SaveWindow:
			if m.cwp == 0 {
				return fmt.Errorf("sparc: window overflow")
			}
			winShift = -1

		case rtl.RestoreWindow:
			if m.cwp+2 >= len(m.windows) {
				return fmt.Errorf("sparc: window underflow")
			}
			winShift = +1

		case rtl.Branch:
			taken := rtl.EvalCond(x.Cond, m.N, m.Z, m.V, m.C)
			target := m.pc + int(x.Disp)
			if taken {
				npc = target
				if x.Cond == rtl.CondAlways && x.Annul {
					pc, npc = target, target+1
				}
			} else if x.Annul {
				pc, npc = m.npc+1, m.npc+2
			}

		case rtl.Call:
			isCall = true
			tgt := m.pc + int(x.Disp)
			if tgt >= len(m.prog.Insns) || tgt < 0 {
				// External (trusted host) call: the delay slot executes,
				// the host function runs, and control resumes after it.
				pendingHost = m.labels[tgt]
				npc = m.pc + 2
			} else {
				npc = tgt
			}

		case rtl.Jump:
			ret, err := eval(x.Target)
			if err != nil {
				return err
			}
			idx, ok := m.prog.IndexOf(ret)
			switch {
			case ok:
				npc = idx
			case ret == 8 || ret == 0:
				// Return past the entry frame: the delay slot still
				// executes, then the program exits.
				npc = exitPC
			default:
				return fmt.Errorf("sparc: jmpl to unmapped address 0x%x", ret)
			}

		case rtl.Unsupported:
			return fmt.Errorf("sparc: %s", x.Msg)

		default:
			return fmt.Errorf("sparc: unknown rtl effect %T", eff)
		}
	}

	// Phase 2: commit. The window shifts first, so an Assign with
	// Win = ±1 lands in the window the instruction entered.
	m.cwp += winShift
	for _, w := range writes {
		m.set(w.dst, w.val)
	}
	for _, s := range stores {
		m.storeRaw(s.addr, s.size, s.val)
	}
	if ccSet {
		m.N, m.Z, m.V, m.C = ccN, ccZ, ccV, ccC
	}
	if pendingHost != "" {
		m.pendingHost = pendingHost
	}

	m.pc, m.npc = pc, npc
	if m.pendingHost != "" && m.pc != exitPC && !isCall {
		// We just executed the delay slot of an external call.
		name := m.pendingHost
		m.pendingHost = ""
		if m.HostCall != nil {
			m.HostCall(name, m)
		} else {
			m.set(O0, 0)
		}
	}
	return nil
}

// Run executes until exit, error, or the step bound.
func (m *Machine) Run(maxSteps int) error {
	for n := 0; n < maxSteps; n++ {
		if err := m.Step(); err != nil {
			if err == ErrExit {
				return nil
			}
			return err
		}
	}
	return fmt.Errorf("sparc: did not terminate within %d steps", maxSteps)
}

// PC exposes the current instruction index (tests).
func (m *Machine) PC() int { return m.pc }
