package sparc

import "fmt"

// Op enumerates the canonical (non-synthetic) SPARC V8 instructions the
// checker understands. Synthetic instructions (mov, clr, cmp, inc, ...)
// are expanded by the assembler into these.
type Op int

const (
	OpInvalid Op = iota

	// Format 3, op = 2: arithmetic and logical.
	OpAdd
	OpAddcc
	OpSub
	OpSubcc
	OpAnd
	OpAndcc
	OpAndn
	OpOr
	OpOrcc
	OpOrn
	OpXor
	OpXorcc
	OpXnor
	OpSll
	OpSrl
	OpSra
	OpUMul
	OpSMul
	OpUDiv
	OpSDiv
	OpJmpl
	OpSave
	OpRestore

	// Format 3, op = 3: loads and stores.
	OpLd
	OpLdub
	OpLduh
	OpLdsb
	OpLdsh
	OpLdd
	OpSt
	OpStb
	OpSth
	OpStd

	// Format 2.
	OpSethi
	OpBranch

	// Format 1.
	OpCall
)

// Cond is a branch condition, encoded in bits 25..28 of a format-2 branch.
type Cond int

const (
	CondN   Cond = 0  // bn: never
	CondE   Cond = 1  // be: equal (Z)
	CondLE  Cond = 2  // ble
	CondL   Cond = 3  // bl
	CondLEU Cond = 4  // bleu
	CondCS  Cond = 5  // bcs / blu: carry set (unsigned less)
	CondNEG Cond = 6  // bneg
	CondVS  Cond = 7  // bvs
	CondA   Cond = 8  // ba: always
	CondNE  Cond = 9  // bne
	CondG   Cond = 10 // bg
	CondGE  Cond = 11 // bge
	CondGU  Cond = 12 // bgu
	CondCC  Cond = 13 // bcc / bgeu: carry clear (unsigned greater-equal)
	CondPOS Cond = 14 // bpos
	CondVC  Cond = 15 // bvc
)

func (c Cond) String() string {
	names := [...]string{"bn", "be", "ble", "bl", "bleu", "blu", "bneg", "bvs",
		"ba", "bne", "bg", "bge", "bgu", "bgeu", "bpos", "bvc"}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("b?%d", int(c))
}

// Insn is one decoded SPARC instruction. For format-3 instructions the
// operands are Rd, Rs1, and either Rs2 (Imm == false) or SImm (a
// sign-extended 13-bit immediate, Imm == true). For sethi, SImm holds the
// 22-bit immediate (already shifted left by 10). For branches and calls,
// Disp is the word displacement from this instruction.
type Insn struct {
	Op    Op
	Cond  Cond // for OpBranch
	Annul bool // for OpBranch: the ",a" bit
	Rd    Reg
	Rs1   Reg
	Rs2   Reg
	Imm   bool
	SImm  int32
	Disp  int32 // word displacement for OpBranch / OpCall

	// Target carries an unresolved label between parsing and assembly;
	// it is empty in decoded instructions.
	Target string
}

// Ref reports the label the instruction refers to, for isa.Assemble.
func (i Insn) Ref() string { return i.Target }

// IsLoad reports whether the instruction reads memory.
func (i Insn) IsLoad() bool {
	switch i.Op {
	case OpLd, OpLdub, OpLduh, OpLdsb, OpLdsh, OpLdd:
		return true
	}
	return false
}

// IsStore reports whether the instruction writes memory.
func (i Insn) IsStore() bool {
	switch i.Op {
	case OpSt, OpStb, OpSth, OpStd:
		return true
	}
	return false
}

// MemSize returns the byte width of a load or store (0 otherwise).
func (i Insn) MemSize() int {
	switch i.Op {
	case OpLdub, OpLdsb, OpStb:
		return 1
	case OpLduh, OpLdsh, OpSth:
		return 2
	case OpLd, OpSt:
		return 4
	case OpLdd, OpStd:
		return 8
	}
	return 0
}

// SetsCC reports whether the instruction writes the integer condition
// codes.
func (i Insn) SetsCC() bool {
	switch i.Op {
	case OpAddcc, OpSubcc, OpAndcc, OpOrcc, OpXorcc:
		return true
	}
	return false
}

// IsBranch reports whether the instruction is a conditional or
// unconditional branch.
func (i Insn) IsBranch() bool { return i.Op == OpBranch }

// IsUncondBranch reports an always-taken branch.
func (i Insn) IsUncondBranch() bool { return i.Op == OpBranch && i.Cond == CondA }

// IsReturn reports whether the instruction is a procedure return:
// jmpl %o7+8,%g0 (retl, for leaf routines) or jmpl %i7+8,%g0 (ret).
func (i Insn) IsReturn() bool {
	return i.Op == OpJmpl && i.Rd == G0 && i.Imm && i.SImm == 8 &&
		(i.Rs1 == O7 || i.Rs1 == I7)
}

// IsNop reports the canonical nop (sethi 0, %g0).
func (i Insn) IsNop() bool { return i.Op == OpSethi && i.Rd == G0 && i.SImm == 0 }

func opName(op Op) string {
	switch op {
	case OpAdd:
		return "add"
	case OpAddcc:
		return "addcc"
	case OpSub:
		return "sub"
	case OpSubcc:
		return "subcc"
	case OpAnd:
		return "and"
	case OpAndcc:
		return "andcc"
	case OpAndn:
		return "andn"
	case OpOr:
		return "or"
	case OpOrcc:
		return "orcc"
	case OpOrn:
		return "orn"
	case OpXor:
		return "xor"
	case OpXorcc:
		return "xorcc"
	case OpXnor:
		return "xnor"
	case OpSll:
		return "sll"
	case OpSrl:
		return "srl"
	case OpSra:
		return "sra"
	case OpUMul:
		return "umul"
	case OpSMul:
		return "smul"
	case OpUDiv:
		return "udiv"
	case OpSDiv:
		return "sdiv"
	case OpJmpl:
		return "jmpl"
	case OpSave:
		return "save"
	case OpRestore:
		return "restore"
	case OpLd:
		return "ld"
	case OpLdub:
		return "ldub"
	case OpLduh:
		return "lduh"
	case OpLdsb:
		return "ldsb"
	case OpLdsh:
		return "ldsh"
	case OpLdd:
		return "ldd"
	case OpSt:
		return "st"
	case OpStb:
		return "stb"
	case OpSth:
		return "sth"
	case OpStd:
		return "std"
	case OpSethi:
		return "sethi"
	case OpCall:
		return "call"
	case OpBranch:
		return "b"
	}
	return "invalid"
}

// String renders a disassembly of the instruction.
func (i Insn) String() string {
	operand2 := func() string {
		if i.Imm {
			return fmt.Sprintf("%d", i.SImm)
		}
		return i.Rs2.String()
	}
	addr := func() string {
		if i.Imm {
			switch {
			case i.SImm == 0:
				return fmt.Sprintf("[%s]", i.Rs1)
			case i.SImm < 0:
				return fmt.Sprintf("[%s-%d]", i.Rs1, -i.SImm)
			default:
				return fmt.Sprintf("[%s+%d]", i.Rs1, i.SImm)
			}
		}
		if i.Rs2 == G0 {
			return fmt.Sprintf("[%s]", i.Rs1)
		}
		return fmt.Sprintf("[%s+%s]", i.Rs1, i.Rs2)
	}
	switch {
	case i.Op == OpBranch:
		suffix := ""
		if i.Annul {
			suffix = ",a"
		}
		tgt := i.Target
		if tgt == "" {
			tgt = fmt.Sprintf(".%+d", i.Disp)
		}
		return fmt.Sprintf("%s%s %s", i.Cond, suffix, tgt)
	case i.Op == OpCall:
		tgt := i.Target
		if tgt == "" {
			tgt = fmt.Sprintf(".%+d", i.Disp)
		}
		return fmt.Sprintf("call %s", tgt)
	case i.Op == OpSethi:
		return fmt.Sprintf("sethi %%hi(0x%x),%s", uint32(i.SImm), i.Rd)
	case i.IsLoad():
		return fmt.Sprintf("%s %s,%s", opName(i.Op), addr(), i.Rd)
	case i.IsStore():
		return fmt.Sprintf("%s %s,%s", opName(i.Op), i.Rd, addr())
	default:
		return fmt.Sprintf("%s %s,%s,%s", opName(i.Op), i.Rs1, operand2(), i.Rd)
	}
}
