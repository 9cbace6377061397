package riscv

import (
	"strings"

	"mcsafe/internal/isa"
)

// parser is RV32I's half of the assembler, for standard syntax ("addi
// a0, a0, 1", "lw a1, 0(a0)", "beq a0, zero, done"), expanding the
// pseudo-instructions li/la/mv/j/call/ret/nop/beqz/bnez; dataSyms
// resolves "la" operands.
type parser struct {
	dataSyms map[string]uint32
}

// reg reads a register, adding the "%" that the RegModel's names carry
// to a bare ABI name ("a0", "x10").
func reg(l *isa.Line, s string) Reg {
	if !strings.HasPrefix(s, "%") {
		s = "%" + s
	}
	return Reg(l.Reg(s))
}

// mem reads an "off(reg)" memory operand; a bare "(reg)" means offset 0.
func mem(l *isa.Line, s string) (int32, Reg) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		l.Fail("bad memory operand %q", s)
		return 0, 0
	}
	off := int32(0)
	if offText := strings.TrimSpace(s[:open]); offText != "" {
		off = l.Num(offText)
	}
	return off, reg(l, strings.TrimSpace(s[open+1:len(s)-1]))
}

// parse turns one lexed line into its instructions, expanding pseudo-
// instructions; it returns none for an unknown mnemonic.
func (p *parser) parse(l *isa.Line) []Insn {
	a, m := l.Args, l.Mnemonic
	if i, ok := bareOps[m]; ok {
		if !l.Want(0) {
			return nil
		}
		return []Insn{i}
	}
	switch m {
	case "j", "call":
		if !l.Want(1) {
			return nil
		}
		rd := Zero
		if m == "call" {
			rd = RA
		}
		return []Insn{{Op: OpJal, Rd: rd, Target: l.Label(a[0])}}
	case "jal":
		// jal label   (rd = ra)  |  jal rd, label
		switch len(a) {
		case 1:
			return []Insn{{Op: OpJal, Rd: RA, Target: l.Label(a[0])}}
		case 2:
			return []Insn{{Op: OpJal, Rd: reg(l, a[0]), Target: l.Label(a[1])}}
		}
		l.Fail("jal expects 1 or 2 operands")
		return nil
	case "jalr":
		if !l.Want(2) {
			return nil
		}
		rd := reg(l, a[0])
		off, rs1 := mem(l, a[1])
		return []Insn{{Op: OpJalr, Rd: rd, Rs1: rs1, Imm: off}}
	case "mv":
		if !l.Want(2) {
			return nil
		}
		return []Insn{{Op: OpAddi, Rd: reg(l, a[0]), Rs1: reg(l, a[1])}}
	case "li", "la":
		if !l.Want(2) {
			return nil
		}
		rd := reg(l, a[0])
		var v int32
		if m == "la" {
			addr, ok := p.dataSyms[a[1]]
			if !ok {
				l.Fail("unknown data symbol %q", a[1])
			}
			v = int32(addr)
		} else {
			v = l.Num(a[1])
		}
		if v >= -2048 && v <= 2047 {
			return []Insn{{Op: OpAddi, Rd: rd, Imm: v}}
		}
		hi := (uint32(v) + 0x800) & 0xfffff000
		lo := int32(uint32(v) - hi)
		out := []Insn{{Op: OpLui, Rd: rd, Imm: int32(hi)}}
		if lo != 0 {
			out = append(out, Insn{Op: OpAddi, Rd: rd, Rs1: rd, Imm: lo})
		}
		return out
	case "beqz", "bnez":
		if !l.Want(2) {
			return nil
		}
		op := OpBeq
		if m == "bnez" {
			op = OpBne
		}
		return []Insn{{Op: op, Rs1: reg(l, a[0]), Target: l.Label(a[1])}}
	case "lui", "auipc":
		if !l.Want(2) {
			return nil
		}
		op := OpLui
		if m == "auipc" {
			op = OpAuipc
		}
		return []Insn{{Op: op, Rd: reg(l, a[0]), Imm: l.Num(a[1]) << 12}}
	}

	if op, ok := branchOps[m]; ok {
		if !l.Want(3) {
			return nil
		}
		return []Insn{{Op: op, Rs1: reg(l, a[0]), Rs2: reg(l, a[1]), Target: l.Label(a[2])}}
	}
	if op, ok := loadOps[m]; ok {
		if !l.Want(2) {
			return nil
		}
		rd := reg(l, a[0])
		off, rs1 := mem(l, a[1])
		return []Insn{{Op: op, Rd: rd, Rs1: rs1, Imm: off}}
	}
	if op, ok := storeOps[m]; ok {
		if !l.Want(2) {
			return nil
		}
		rs2 := reg(l, a[0])
		off, rs1 := mem(l, a[1])
		return []Insn{{Op: op, Rs1: rs1, Rs2: rs2, Imm: off}}
	}
	if op, ok := immALUOps[m]; ok {
		if !l.Want(3) {
			return nil
		}
		return []Insn{{Op: op, Rd: reg(l, a[0]), Rs1: reg(l, a[1]), Imm: l.Num(a[2])}}
	}
	if op, ok := regALUOps[m]; ok {
		if !l.Want(3) {
			return nil
		}
		return []Insn{{Op: op, Rd: reg(l, a[0]), Rs1: reg(l, a[1]), Rs2: reg(l, a[2])}}
	}
	return nil
}

// bareOps are the instructions written without operands.
var bareOps = map[string]Insn{
	"nop":    {Op: OpAddi},
	"ret":    {Op: OpJalr, Rd: Zero, Rs1: RA},
	"ecall":  {Op: OpEcall},
	"ebreak": {Op: OpEbreak},
	"fence":  {Op: OpFence},
}
var branchOps = map[string]Op{
	"beq": OpBeq, "bne": OpBne, "blt": OpBlt, "bge": OpBge,
	"bltu": OpBltu, "bgeu": OpBgeu,
}
var loadOps = map[string]Op{
	"lb": OpLb, "lh": OpLh, "lw": OpLw, "lbu": OpLbu, "lhu": OpLhu,
}
var storeOps = map[string]Op{"sb": OpSb, "sh": OpSh, "sw": OpSw}
var immALUOps = map[string]Op{
	"addi": OpAddi, "slti": OpSlti, "sltiu": OpSltiu, "xori": OpXori,
	"ori": OpOri, "andi": OpAndi, "slli": OpSlli, "srli": OpSrli,
	"srai": OpSrai,
}
var regALUOps = map[string]Op{
	"add": OpAdd, "sub": OpSub, "sll": OpSll, "slt": OpSlt,
	"sltu": OpSltu, "xor": OpXor, "srl": OpSrl, "sra": OpSra,
	"or": OpOr, "and": OpAnd,
}
