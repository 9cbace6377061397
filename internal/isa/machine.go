package isa

import (
	"cmp"
	"errors"
	"fmt"

	"mcsafe/internal/rtl"
)

// Machine is the concrete interpreter of every front-end, over a
// Program's decoded instruction stream. It exists for differential
// testing: the abstract operational semantics of the checker (typestate
// propagation, wlp) are validated against real executions on random
// inputs.
//
// The instruction semantics are not written here: Step executes each
// instruction's lifted RTL (Insn.RTL), so the interpreter, typestate
// propagation and WLP generation all consume the same per-opcode
// definition. The machine-state plumbing comes from the program's Arch:
// the register file and its windows from Regs and Conv().Window,
// delayed or immediate control transfer from Traits().DelaySlots, the
// register a host call's result lands in from Conv().RetReg, and the
// byte order of memory from Traits().ByteOrder.
//
// The model is deliberately small: 32-bit integer registers (register
// windows when the architecture has them), a sparse byte memory, and
// the integer condition codes. Traps, floating point, and
// alternate address spaces are out of scope, exactly as they are for
// the checker.
type Machine struct {
	// Mem is sparse byte memory.
	Mem map[uint32]byte
	// N, Z, V, C are the condition codes.
	N, Z, V, C bool
	// PC is the current instruction index and NPC the next one; they
	// differ by more than one only in the delay slot of a transfer.
	PC, NPC int
	// Regs holds the unwindowed registers by number. Windows holds the
	// out and local banks of each register window, and CWP indexes the
	// current one; a window's ins are the outs of the window after it.
	// An unwindowed architecture has no windows.
	Regs    []uint32
	Windows [][]uint32
	CWP     int
	// Host names an external call waiting for its delay slot to execute.
	Host string
	// Steps counts executed instructions.
	Steps int

	// OnMem, when set, observes every data-memory access (differential
	// tests use it to assert memory safety of checker-approved code).
	OnMem func(addr uint32, size int, write bool)

	// HostCall, when set, simulates calls to external (trusted host)
	// symbols: it runs once the call has taken effect (after its delay
	// slot, if any), and control resumes at the call's return point.
	// When nil, external calls return 0 in Conv().RetReg.
	HostCall func(name string, m *Machine)

	prog   *Program
	model  *RegModel
	win    WindowLayout
	retReg rtl.Reg
	delay  bool
	order  ByteOrder
	// labels names each call target, the least label at each index.
	labels map[int]string
}

// windows is the depth of a windowed machine's register-window stack;
// execution starts in the middle, enough for the checker's
// non-recursive programs.
const windows = 32

// NewMachine creates an interpreter for p, stopped at its entry with
// zeroed registers and empty memory.
func NewMachine(p *Program) *Machine {
	conv, traits := p.Arch.Conv(), p.Arch.Traits()
	m := &Machine{
		Mem:    make(map[uint32]byte),
		PC:     p.Entry,
		NPC:    p.Entry + 1,
		Regs:   make([]uint32, p.Arch.Regs().N()),
		prog:   p,
		model:  p.Arch.Regs(),
		win:    conv.Window,
		retReg: conv.RetReg,
		delay:  traits.DelaySlots,
		order:  traits.ByteOrder,
		labels: p.Labels(),
	}
	if m.win.Size > 0 {
		m.Windows = make([][]uint32, windows)
		for w := range m.Windows {
			m.Windows[w] = make([]uint32, 2*m.win.Size)
		}
		m.CWP = windows / 2
	}
	return m
}

// slot resolves register r to its storage in the current window.
func (m *Machine) slot(r rtl.Reg) *uint32 {
	in, local, size := m.win.In, m.win.Local, rtl.Reg(m.win.Size)
	switch {
	case !m.model.Windowed(r):
		return &m.Regs[r]
	case r >= in && r < in+size:
		return &m.Windows[m.CWP+1][r-in]
	case r >= local && r < local+size:
		return &m.Windows[m.CWP][size+r-local]
	default:
		return &m.Windows[m.CWP][r-m.win.Out]
	}
}

// Reg reads a register in the current window; rtl.ZeroReg reads 0.
func (m *Machine) Reg(r rtl.Reg) uint32 {
	if r == rtl.ZeroReg {
		return 0
	}
	return *m.slot(r)
}

// SetReg writes a register in the current window; writes to
// rtl.ZeroReg are discarded.
func (m *Machine) SetReg(r rtl.Reg, v uint32) {
	if r != rtl.ZeroReg {
		*m.slot(r) = v
	}
}

// Store32 and Load32 access a word of the sparse memory.
func (m *Machine) Store32(addr uint32, v uint32) { m.order.Store(m.Mem, addr, 4, v) }

func (m *Machine) Load32(addr uint32) uint32 { return m.order.Load(m.Mem, addr, 4) }

// ErrExit is returned by Step when the program returns from its entry
// procedure (a return with no caller).
var ErrExit = errors.New("isa: program exited")

// exitPC is the sentinel "return address" of the entry frame.
const exitPC = -1

// Step executes one instruction by interpreting its RTL effects. It
// returns ErrExit on a return past the entry frame, or an error for
// faults (out-of-range PC, window overflow or underflow, division by
// zero, an unsupported instruction). A faulting instruction changes no
// state but the step count.
func (m *Machine) Step() error {
	if m.PC == exitPC {
		return ErrExit
	}
	if m.PC < 0 || m.PC >= len(m.prog.Insns) {
		return fmt.Errorf("isa: PC %d out of range", m.PC)
	}
	m.Steps++
	insn := &m.prog.Insns[m.PC]
	sh, ok := rtl.ShapeOf(insn.RTL)
	if insn.RTL == nil || !ok {
		return fmt.Errorf("isa: no semantics for %q", insn.Text)
	}
	pcAddr := m.prog.AddrOf(m.PC)

	// Evaluate every source in the pre-state; the first fault wins. No
	// machine state changes until the instruction has evaluated without
	// fault.
	var err error
	eval := func(e rtl.Expr) uint32 {
		v, evalErr := rtl.EvalExpr(e, m.Reg, pcAddr)
		err = cmp.Or(err, evalErr)
		return v
	}
	var val, addr, data, dest uint32
	if a := sh.Assign(); a != nil {
		val = eval(a.Src)
	}
	n, z, v, c := m.N, m.Z, m.V, m.C
	if cc := sh.CC(); cc != nil {
		var ccErr error
		n, z, v, c, ccErr = rtl.EvalCC(cc.Op, eval(cc.A), eval(cc.B))
		err = cmp.Or(err, ccErr)
	}
	switch x := sh.Mem.(type) {
	case rtl.Load:
		addr = eval(x.Addr)
	case rtl.Store:
		addr, data = eval(x.Addr), eval(x.Src)
	case rtl.Unsupported:
		return fmt.Errorf("isa: %s", x.Msg)
	}
	if j, ok := sh.Ctl.(rtl.Jump); ok {
		dest = eval(j.Target)
	}
	if err != nil {
		return fmt.Errorf("isa: %v", err)
	}
	// An unwindowed machine (no windows, CWP 0) faults on either shift.
	switch {
	case sh.Win > 0 && m.CWP == 0:
		return fmt.Errorf("isa: window overflow")
	case sh.Win < 0 && m.CWP+2 >= len(m.Windows):
		return fmt.Errorf("isa: window underflow")
	}

	// Control: fall through, or transfer to target — after the delay
	// slot when the architecture has one, at once otherwise.
	pc, npc := m.NPC, m.NPC+1
	transfer := func(target int) {
		if m.delay {
			npc = target
		} else {
			pc, npc = target, target+1
		}
	}
	host := ""
	switch x := sh.Ctl.(type) {
	case rtl.Branch:
		target := m.PC + int(x.Disp)
		switch taken := rtl.EvalCond(x.Cond, n, z, v, c); {
		case taken && x.Annul && x.Cond == rtl.CondAlways:
			pc, npc = target, target+1 // the delay slot is annulled
		case taken:
			transfer(target)
		case x.Annul:
			pc, npc = m.NPC+1, m.NPC+2 // an untaken annulled branch skips its slot
		}
	case rtl.Call:
		target := m.PC + int(x.Disp)
		if target >= 0 && target < len(m.prog.Insns) {
			transfer(target)
			break
		}
		// External (trusted host) call: the host function runs once the
		// call takes effect, and control resumes after the call (and
		// its delay slot).
		host = m.labels[target]
		if m.delay {
			transfer(m.PC + 2)
		} else {
			transfer(m.PC + 1)
		}
	case rtl.Jump:
		idx, ok := m.prog.IndexOf(dest)
		switch {
		case ok:
			transfer(idx)
		case dest == 8 || dest == 0:
			// A return past the entry frame, whose link register held
			// 0: the program exits (after the delay slot, if any).
			transfer(exitPC)
		default:
			return fmt.Errorf("isa: jump to unmapped address 0x%x", dest)
		}
	}

	// Commit. The window shifts first, so an Assign with Win = ±1 lands
	// in the window the instruction entered (a save, Win +1, moves to
	// the window below). No instruction both loads and stores, so a load
	// reads the pre-state memory.
	m.CWP -= sh.Win
	if a := sh.Assign(); a != nil {
		m.SetReg(a.Dst, val)
	}
	switch x := sh.Mem.(type) {
	case rtl.Load:
		if m.OnMem != nil {
			m.OnMem(addr, x.Size, false)
		}
		m.SetReg(x.Dst, rtl.Extend(m.order.Load(m.Mem, addr, x.Size), x.Size, x.Signed))
	case rtl.Store:
		if m.OnMem != nil {
			m.OnMem(addr, x.Size, true)
		}
		m.order.Store(m.Mem, addr, x.Size, data)
	}
	if sh.CC() != nil {
		m.N, m.Z, m.V, m.C = n, z, v, c
	}
	if host != "" {
		m.Host = host
	}
	m.PC, m.NPC = pc, npc
	_, isCall := sh.Ctl.(rtl.Call)
	if m.Host != "" && m.PC != exitPC && (!isCall || !m.delay) {
		name := m.Host
		m.Host = ""
		if m.HostCall != nil {
			m.HostCall(name, m)
		} else {
			m.SetReg(m.retReg, 0)
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
	return fmt.Errorf("isa: did not terminate within %d steps", maxSteps)
}
