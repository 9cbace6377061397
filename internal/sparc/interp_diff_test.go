package sparc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mcsafe/internal/isa"
	"mcsafe/internal/rtl"
)

// legacyMachine is a frozen copy of the SPARC interpreter as it existed
// before instruction semantics moved to the RTL lifter: a hand-written
// switch per opcode. It exists only as a differential reference — the
// RTL-driven isa.Machine must agree with it on every reachable state. It
// executes the native decode of the program's words, never the lifted
// RTL.
type legacyMachine struct {
	prog        *isa.Program
	insns       []Insn
	globals     [8]uint32
	windows     [][16]uint32
	cwp         int
	mem         map[uint32]byte
	n, z, v, c  bool
	pc, npc     int
	steps       int
	pendingHost string
}

// exitPC is the entry frame's sentinel return index, as isa.Machine
// reports it in PC once the program has returned.
const exitPC = -1

func newLegacyMachine(t *testing.T, p *isa.Program) *legacyMachine {
	return &legacyMachine{
		prog:    p,
		insns:   decodeWords(t, p.Words),
		windows: make([][16]uint32, 32),
		cwp:     16,
		mem:     make(map[uint32]byte),
		pc:      p.Entry,
		npc:     p.Entry + 1,
	}
}

func (m *legacyMachine) get(r Reg) uint32 {
	switch {
	case r == G0:
		return 0
	case r < 8:
		return m.globals[r]
	case r < 24:
		return m.windows[m.cwp][r-8]
	default:
		return m.windows[m.cwp+1][r-24]
	}
}

func (m *legacyMachine) set(r Reg, v uint32) {
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

func (m *legacyMachine) store32(addr, v uint32) {
	m.mem[addr] = byte(v >> 24)
	m.mem[addr+1] = byte(v >> 16)
	m.mem[addr+2] = byte(v >> 8)
	m.mem[addr+3] = byte(v)
}

func (m *legacyMachine) load32(addr uint32) uint32 {
	return uint32(m.mem[addr])<<24 | uint32(m.mem[addr+1])<<16 |
		uint32(m.mem[addr+2])<<8 | uint32(m.mem[addr+3])
}

func (m *legacyMachine) operand2(i Insn) uint32 {
	if i.Imm {
		return uint32(i.SImm)
	}
	return m.get(i.Rs2)
}

func (m *legacyMachine) setCC(res uint32, v, c bool) {
	m.n = res&0x80000000 != 0
	m.z = res == 0
	m.v = v
	m.c = c
}

func (m *legacyMachine) cond(c Cond) bool {
	switch c {
	case CondA:
		return true
	case CondN:
		return false
	case CondE:
		return m.z
	case CondNE:
		return !m.z
	case CondL:
		return m.n != m.v
	case CondGE:
		return m.n == m.v
	case CondLE:
		return m.z || m.n != m.v
	case CondG:
		return !m.z && m.n == m.v
	case CondCS:
		return m.c
	case CondCC:
		return !m.c
	case CondLEU:
		return m.c || m.z
	case CondGU:
		return !m.c && !m.z
	case CondNEG:
		return m.n
	case CondPOS:
		return !m.n
	case CondVS:
		return m.v
	case CondVC:
		return !m.v
	}
	return false
}

func (m *legacyMachine) step() error {
	if m.pc == exitPC {
		return isa.ErrExit
	}
	if m.pc < 0 || m.pc >= len(m.prog.Insns) {
		return fmt.Errorf("sparc: PC %d out of range", m.pc)
	}
	m.steps++
	i := m.insns[m.pc]
	pc, npc := m.npc, m.npc+1

	switch {
	case i.Op == OpSethi:
		m.set(i.Rd, uint32(i.SImm))

	case i.Op == OpBranch:
		taken := m.cond(i.Cond)
		target := m.pc + int(i.Disp)
		if taken {
			npc = target
			if i.Cond == CondA && i.Annul {
				pc, npc = target, target+1
			}
		} else if i.Annul {
			pc, npc = m.npc+1, m.npc+2
		}

	case i.Op == OpCall:
		m.set(O7, m.prog.AddrOf(m.pc))
		tgt := m.pc + int(i.Disp)
		if tgt >= len(m.prog.Insns) || tgt < 0 {
			m.pendingHost = m.prog.Labels()[tgt]
			npc = m.pc + 2
		} else {
			npc = tgt
		}

	case i.Op == OpJmpl:
		ret := m.get(i.Rs1) + m.operand2(i)
		m.set(i.Rd, m.prog.AddrOf(m.pc))
		idx, ok := m.prog.IndexOf(ret)
		switch {
		case ok:
			npc = idx
		case ret == 8 || ret == 0:
			npc = exitPC
		default:
			return fmt.Errorf("sparc: jmpl to unmapped address 0x%x", ret)
		}

	case i.Op == OpSave:
		v := m.get(i.Rs1) + m.operand2(i)
		if m.cwp == 0 {
			return fmt.Errorf("sparc: window overflow")
		}
		m.cwp--
		m.set(i.Rd, v)

	case i.Op == OpRestore:
		v := m.get(i.Rs1) + m.operand2(i)
		if m.cwp+2 >= len(m.windows) {
			return fmt.Errorf("sparc: window underflow")
		}
		m.cwp++
		m.set(i.Rd, v)

	case i.IsLoad():
		addr := m.get(i.Rs1) + m.operand2(i)
		switch i.Op {
		case OpLd:
			m.set(i.Rd, m.load32(addr))
		case OpLdub:
			m.set(i.Rd, uint32(m.mem[addr]))
		case OpLdsb:
			m.set(i.Rd, uint32(int32(int8(m.mem[addr]))))
		case OpLduh:
			m.set(i.Rd, uint32(m.mem[addr])<<8|uint32(m.mem[addr+1]))
		case OpLdsh:
			m.set(i.Rd, uint32(int32(int16(uint16(m.mem[addr])<<8|uint16(m.mem[addr+1])))))
		default:
			return fmt.Errorf("sparc: unsupported load %v", i.Op)
		}

	case i.IsStore():
		addr := m.get(i.Rs1) + m.operand2(i)
		v := m.get(i.Rd)
		switch i.Op {
		case OpSt:
			m.store32(addr, v)
		case OpStb:
			m.mem[addr] = byte(v)
		case OpSth:
			m.mem[addr] = byte(v >> 8)
			m.mem[addr+1] = byte(v)
		default:
			return fmt.Errorf("sparc: unsupported store %v", i.Op)
		}

	default:
		a := m.get(i.Rs1)
		b := m.operand2(i)
		var res uint32
		switch i.Op {
		case OpAdd, OpAddcc:
			res = a + b
			if i.Op == OpAddcc {
				v := (a&0x80000000 == b&0x80000000) && (res&0x80000000 != a&0x80000000)
				c := uint64(a)+uint64(b) > 0xffffffff
				m.setCC(res, v, c)
			}
		case OpSub, OpSubcc:
			res = a - b
			if i.Op == OpSubcc {
				v := (a&0x80000000 != b&0x80000000) && (res&0x80000000 == b&0x80000000)
				c := uint64(a) < uint64(b)
				m.setCC(res, v, c)
			}
		case OpAnd, OpAndcc:
			res = a & b
			if i.Op == OpAndcc {
				m.setCC(res, false, false)
			}
		case OpAndn:
			res = a &^ b
		case OpOr, OpOrcc:
			res = a | b
			if i.Op == OpOrcc {
				m.setCC(res, false, false)
			}
		case OpOrn:
			res = a | ^b
		case OpXor, OpXorcc:
			res = a ^ b
			if i.Op == OpXorcc {
				m.setCC(res, false, false)
			}
		case OpXnor:
			res = ^(a ^ b)
		case OpSll:
			res = a << (b & 31)
		case OpSrl:
			res = a >> (b & 31)
		case OpSra:
			res = uint32(int32(a) >> (b & 31))
		case OpUMul, OpSMul:
			res = a * b
		case OpUDiv:
			if b == 0 {
				return fmt.Errorf("sparc: division by zero")
			}
			res = a / b
		case OpSDiv:
			if b == 0 {
				return fmt.Errorf("sparc: division by zero")
			}
			res = uint32(int32(a) / int32(b))
		default:
			return fmt.Errorf("sparc: unsupported op %v", i.Op)
		}
		m.set(i.Rd, res)
	}

	m.pc, m.npc = pc, npc
	if m.pendingHost != "" && m.pc != exitPC {
		name := m.pendingHost
		m.pendingHost = ""
		if i.Op != OpCall {
			m.set(O0, 0)
		} else {
			m.pendingHost = name
		}
	}
	return nil
}

// randDiffInsn generates one encodable instruction, biased toward the
// opcodes the evaluation programs use heavily.
func randDiffInsn(rng *rand.Rand, n int) Insn {
	reg := func() Reg { return Reg(rng.Intn(32)) }
	aluOps := []Op{
		OpAdd, OpAddcc, OpSub, OpSubcc, OpAnd, OpAndcc, OpAndn,
		OpOr, OpOrcc, OpOrn, OpXor, OpXorcc, OpXnor,
		OpSll, OpSrl, OpSra, OpUMul, OpSMul, OpUDiv, OpSDiv,
	}
	memOps := []Op{OpLd, OpLdub, OpLduh, OpLdsb, OpLdsh, OpSt, OpStb, OpSth, OpLdd, OpStd}
	i := Insn{Rd: reg(), Rs1: reg(), Rs2: reg()}
	if rng.Intn(2) == 0 {
		i.Imm = true
		i.SImm = int32(rng.Intn(8192) - 4096)
	}
	switch k := rng.Intn(20); {
	case k < 10:
		i.Op = aluOps[rng.Intn(len(aluOps))]
	case k < 14:
		i.Op = memOps[rng.Intn(len(memOps))]
	case k < 17:
		i.Op = OpBranch
		i.Cond = Cond(rng.Intn(16))
		i.Annul = rng.Intn(2) == 0
		i.Disp = int32(rng.Intn(9) - 4)
		i.Imm = false
	case k == 17:
		i.Op = OpSethi
		i.Imm = true
		i.SImm = int32(rng.Uint32()) &^ 0x3ff
	case k == 18:
		switch rng.Intn(3) {
		case 0:
			i.Op = OpCall
			i.Disp = int32(rng.Intn(2*n) - n/2)
			i.Imm = false
		default:
			i.Op = OpJmpl
		}
	default:
		if rng.Intn(2) == 0 {
			i.Op = OpSave
		} else {
			i.Op = OpRestore
		}
	}
	return i
}

// TestInterpMatchesLegacy runs random programs in lockstep on the
// RTL-driven interpreter and the frozen legacy switch, comparing the
// entire machine state after every step. Errors must coincide (messages
// may differ for instructions outside the checker's subset).
func TestInterpMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const progs = 400
	const maxSteps = 120

	for p := 0; p < progs; p++ {
		n := 8 + rng.Intn(24)
		words := make([]uint32, n)
		for j := range words {
			w, err := Encode(randDiffInsn(rng, n))
			if err != nil {
				t.Fatalf("prog %d insn %d: encode: %v", p, j, err)
			}
			words[j] = w
		}
		prog, err := isa.FromWords(Arch, words, 0, nil, nil)
		if err != nil {
			t.Fatalf("prog %d: FromWords: %v", p, err)
		}

		m := isa.NewMachine(prog)
		l := newLegacyMachine(t, prog)
		// Identical random initial state.
		for r := Reg(1); r < 32; r++ {
			v := rng.Uint32()
			m.SetReg(rtl.Reg(r), v)
			l.set(r, v)
		}
		for a := 0; a < 16; a++ {
			addr := rng.Uint32() % 256
			b := byte(rng.Uint32())
			m.Mem[addr] = b
			l.mem[addr] = b
		}

		for s := 0; s < maxSteps; s++ {
			errM := m.Step()
			errL := l.step()
			if (errM == nil) != (errL == nil) {
				t.Fatalf("prog %d step %d: rtl err %v, legacy err %v\n%s",
					p, s, errM, errL, prog.Disassemble())
			}
			if errM != nil {
				if (errM == isa.ErrExit) != (errL == isa.ErrExit) {
					t.Fatalf("prog %d step %d: exit mismatch: rtl %v, legacy %v",
						p, s, errM, errL)
				}
				break
			}
			if m.PC != l.pc || m.NPC != l.npc || m.CWP != l.cwp ||
				m.N != l.n || m.Z != l.z || m.V != l.v || m.C != l.c ||
				m.Host != l.pendingHost || m.Steps != l.steps {
				t.Fatalf("prog %d step %d: control state diverged\nrtl: pc=%d npc=%d cwp=%d nzvc=%v%v%v%v host=%q\nleg: pc=%d npc=%d cwp=%d nzvc=%v%v%v%v host=%q\n%s",
					p, s, m.PC, m.NPC, m.CWP, m.N, m.Z, m.V, m.C, m.Host,
					l.pc, l.npc, l.cwp, l.n, l.z, l.v, l.c, l.pendingHost,
					prog.Disassemble())
			}
			same := [8]uint32(m.Regs[:8]) == l.globals && len(m.Windows) == len(l.windows)
			for w := 0; same && w < len(l.windows); w++ {
				same = slices.Equal(m.Windows[w], l.windows[w][:])
			}
			if !same {
				t.Fatalf("prog %d step %d: registers diverged\n%s", p, s, prog.Disassemble())
			}
			if !reflect.DeepEqual(m.Mem, l.mem) {
				t.Fatalf("prog %d step %d: memory diverged", p, s)
			}
		}
	}
}
