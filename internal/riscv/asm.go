package riscv

import (
	"fmt"
	"strconv"
	"strings"
)

// parser reads RV32I assembly in standard syntax ("addi a0, a0, 1",
// "lw a1, 0(a0)", "beq a0, zero, done"), expanding the pseudo-
// instructions li/la/mv/j/call/ret/nop/beqz/bnez; dataSyms resolves
// "la" operands.
type parser struct {
	dataSyms map[string]uint32
}

// parseLine parses one source line into leading labels and expanded
// instructions. Comments start with "#".
func (p *parser) parseLine(text string, line int) ([]string, []Insn, error) {
	if i := strings.IndexByte(text, '#'); i >= 0 {
		text = text[:i]
	}
	text = strings.TrimSpace(text)
	var labels []string
	for {
		i := strings.IndexByte(text, ':')
		if i < 0 {
			break
		}
		lbl := strings.TrimSpace(text[:i])
		if lbl == "" || strings.ContainsAny(lbl, " \t,()") {
			return nil, nil, fmt.Errorf("line %d: bad label %q", line, lbl)
		}
		labels = append(labels, lbl)
		text = strings.TrimSpace(text[i+1:])
	}
	if text == "" {
		return labels, nil, nil
	}
	insns, err := p.parseInsn(text, line)
	return labels, insns, err
}

func (p *parser) parseInsn(text string, line int) ([]Insn, error) {
	mnemonic, rest, _ := strings.Cut(text, " ")
	mnemonic = strings.ToLower(strings.TrimSpace(mnemonic))
	var ops []string
	if rest = strings.TrimSpace(rest); rest != "" {
		ops = strings.Split(rest, ",")
		for i := range ops {
			ops[i] = strings.TrimSpace(ops[i])
		}
	}
	errf := func(format string, args ...any) ([]Insn, error) {
		return nil, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...))
	}
	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("line %d: %s wants %d operands, got %d", line, mnemonic, n, len(ops))
		}
		return nil
	}
	one := func(i Insn) ([]Insn, error) {
		i.Line = line
		return []Insn{i}, nil
	}

	switch mnemonic {
	case "nop":
		if err := need(0); err != nil {
			return nil, err
		}
		return one(Insn{Op: OpAddi})
	case "ret":
		if err := need(0); err != nil {
			return nil, err
		}
		return one(Insn{Op: OpJalr, Rd: Zero, Rs1: RA})
	case "ecall", "ebreak", "fence":
		if err := need(0); err != nil {
			return nil, err
		}
		op := map[string]Op{"ecall": OpEcall, "ebreak": OpEbreak, "fence": OpFence}[mnemonic]
		return one(Insn{Op: op})
	case "j", "call":
		if err := need(1); err != nil {
			return nil, err
		}
		rd := Zero
		if mnemonic == "call" {
			rd = RA
		}
		return one(Insn{Op: OpJal, Rd: rd, Target: ops[0]})
	case "jal":
		// jal label   (rd = ra)  |  jal rd, label
		switch len(ops) {
		case 1:
			return one(Insn{Op: OpJal, Rd: RA, Target: ops[0]})
		case 2:
			rd, err := ParseReg(ops[0])
			if err != nil {
				return errf("%v", err)
			}
			return one(Insn{Op: OpJal, Rd: rd, Target: ops[1]})
		}
		return errf("jal wants 1 or 2 operands")
	case "jalr":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := ParseReg(ops[0])
		if err != nil {
			return errf("%v", err)
		}
		off, rs1, err := parseMem(ops[1])
		if err != nil {
			return errf("%v", err)
		}
		return one(Insn{Op: OpJalr, Rd: rd, Rs1: rs1, Imm: off})
	case "mv":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err1 := ParseReg(ops[0])
		rs, err2 := ParseReg(ops[1])
		if err1 != nil || err2 != nil {
			return errf("bad mv operands")
		}
		return one(Insn{Op: OpAddi, Rd: rd, Rs1: rs})
	case "li", "la":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := ParseReg(ops[0])
		if err != nil {
			return errf("%v", err)
		}
		var v int64
		if mnemonic == "la" {
			addr, ok := p.dataSyms[ops[1]]
			if !ok {
				return errf("unknown data symbol %q", ops[1])
			}
			v = int64(int32(addr))
		} else {
			n, err := parseImm(ops[1])
			if err != nil {
				return errf("%v", err)
			}
			v = int64(n)
		}
		if v >= -2048 && v <= 2047 {
			return []Insn{{Op: OpAddi, Rd: rd, Imm: int32(v), Line: line}}, nil
		}
		hi := (uint32(v) + 0x800) & 0xfffff000
		lo := int32(uint32(v) - hi)
		out := []Insn{{Op: OpLui, Rd: rd, Imm: int32(hi), Line: line}}
		if lo != 0 {
			out = append(out, Insn{Op: OpAddi, Rd: rd, Rs1: rd, Imm: lo, Line: line})
		}
		return out, nil
	case "beqz", "bnez":
		if err := need(2); err != nil {
			return nil, err
		}
		rs, err := ParseReg(ops[0])
		if err != nil {
			return errf("%v", err)
		}
		op := OpBeq
		if mnemonic == "bnez" {
			op = OpBne
		}
		return one(Insn{Op: op, Rs1: rs, Target: ops[1]})
	}

	if op, ok := branchOps[mnemonic]; ok {
		if err := need(3); err != nil {
			return nil, err
		}
		rs1, err1 := ParseReg(ops[0])
		rs2, err2 := ParseReg(ops[1])
		if err1 != nil || err2 != nil {
			return errf("bad %s operands", mnemonic)
		}
		return one(Insn{Op: op, Rs1: rs1, Rs2: rs2, Target: ops[2]})
	}
	if op, ok := loadOps[mnemonic]; ok {
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := ParseReg(ops[0])
		if err != nil {
			return errf("%v", err)
		}
		off, rs1, err := parseMem(ops[1])
		if err != nil {
			return errf("%v", err)
		}
		return one(Insn{Op: op, Rd: rd, Rs1: rs1, Imm: off})
	}
	if op, ok := storeOps[mnemonic]; ok {
		if err := need(2); err != nil {
			return nil, err
		}
		rs2, err := ParseReg(ops[0])
		if err != nil {
			return errf("%v", err)
		}
		off, rs1, err := parseMem(ops[1])
		if err != nil {
			return errf("%v", err)
		}
		return one(Insn{Op: op, Rs1: rs1, Rs2: rs2, Imm: off})
	}
	if op, ok := immALUOps[mnemonic]; ok {
		if err := need(3); err != nil {
			return nil, err
		}
		rd, err1 := ParseReg(ops[0])
		rs1, err2 := ParseReg(ops[1])
		imm, err3 := parseImm(ops[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return errf("bad %s operands", mnemonic)
		}
		return one(Insn{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
	}
	if op, ok := regALUOps[mnemonic]; ok {
		if err := need(3); err != nil {
			return nil, err
		}
		rd, err1 := ParseReg(ops[0])
		rs1, err2 := ParseReg(ops[1])
		rs2, err3 := ParseReg(ops[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return errf("bad %s operands", mnemonic)
		}
		return one(Insn{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
	}
	if mnemonic == "lui" || mnemonic == "auipc" {
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err1 := ParseReg(ops[0])
		imm, err2 := parseImm(ops[1])
		if err1 != nil || err2 != nil {
			return errf("bad %s operands", mnemonic)
		}
		op := OpLui
		if mnemonic == "auipc" {
			op = OpAuipc
		}
		return one(Insn{Op: op, Rd: rd, Imm: imm << 12})
	}
	return errf("unknown mnemonic %q", mnemonic)
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

// parseMem parses an "off(reg)" memory operand; a bare "(reg)" means
// offset 0.
func parseMem(s string) (int32, Reg, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("riscv: bad memory operand %q", s)
	}
	off := int32(0)
	if offText := strings.TrimSpace(s[:open]); offText != "" {
		v, err := parseImm(offText)
		if err != nil {
			return 0, 0, err
		}
		off = v
	}
	reg, err := ParseReg(strings.TrimSpace(s[open+1 : len(s)-1]))
	if err != nil {
		return 0, 0, err
	}
	return off, reg, nil
}

func parseImm(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("riscv: bad immediate %q", s)
	}
	if v < -(1<<31) || v >= 1<<32 {
		return 0, fmt.Errorf("riscv: immediate %q out of 32-bit range", s)
	}
	return int32(v), nil
}
