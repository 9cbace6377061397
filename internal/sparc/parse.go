package sparc

import (
	"strings"

	"mcsafe/internal/isa"
)

var branchConds = map[string]Cond{
	"ba": CondA, "b": CondA, "bn": CondN,
	"be": CondE, "bz": CondE, "bne": CondNE, "bnz": CondNE,
	"bl": CondL, "ble": CondLE, "bg": CondG, "bge": CondGE,
	"blu": CondCS, "bcs": CondCS, "bleu": CondLEU,
	"bgu": CondGU, "bgeu": CondCC, "bcc": CondCC,
	"bpos": CondPOS, "bneg": CondNEG, "bvs": CondVS, "bvc": CondVC,
}

var arithMnemonics = map[string]Op{
	"add": OpAdd, "addcc": OpAddcc, "sub": OpSub, "subcc": OpSubcc,
	"and": OpAnd, "andcc": OpAndcc, "andn": OpAndn,
	"or": OpOr, "orcc": OpOrcc, "orn": OpOrn,
	"xor": OpXor, "xorcc": OpXorcc, "xnor": OpXnor,
	"sll": OpSll, "srl": OpSrl, "sra": OpSra,
	"umul": OpUMul, "smul": OpSMul, "udiv": OpUDiv, "sdiv": OpSDiv,
	"jmpl": OpJmpl, "save": OpSave, "restore": OpRestore,
}

var loadMnemonics = map[string]Op{
	"ld": OpLd, "ldub": OpLdub, "lduh": OpLduh, "ldsb": OpLdsb,
	"ldsh": OpLdsh, "ldd": OpLdd,
}

var storeMnemonics = map[string]Op{
	"st": OpSt, "stb": OpStb, "sth": OpSth, "std": OpStd,
}

// operand is a register or an immediate (possibly a %lo()/%hi() of a
// symbol resolved by the assembler's symbol table).
type operand struct {
	isImm bool
	reg   Reg
	imm   int32
}

// parser is SPARC's half of the assembler: it turns one lexed line into
// instructions, expanding synthetic instructions. dataSyms resolves
// "set" and %hi()/%lo() operands.
type parser struct {
	dataSyms map[string]uint32
}

// reg reads a register; SPARC names carry their "%".
func reg(l *isa.Line, s string) Reg { return Reg(l.Reg(s)) }

func (p *parser) operand(l *isa.Line, s string) operand {
	if strings.HasPrefix(s, "%") && !strings.HasPrefix(s, "%hi(") && !strings.HasPrefix(s, "%lo(") {
		return operand{reg: reg(l, s)}
	}
	return operand{isImm: true, imm: p.imm(l, s)}
}

func (p *parser) imm(l *isa.Line, s string) int32 {
	if inner, ok := strings.CutPrefix(s, "%hi("); ok && strings.HasSuffix(s, ")") {
		return int32(uint32(p.symOrNum(l, inner[:len(inner)-1])) &^ 0x3ff)
	}
	if inner, ok := strings.CutPrefix(s, "%lo("); ok && strings.HasSuffix(s, ")") {
		return int32(uint32(p.symOrNum(l, inner[:len(inner)-1])) & 0x3ff)
	}
	return l.Num(s)
}

// symOrNum reads a data symbol's address or a number.
func (p *parser) symOrNum(l *isa.Line, s string) int32 {
	s = strings.TrimSpace(s)
	if addr, ok := p.dataSyms[s]; ok {
		return int32(addr)
	}
	return l.Num(s)
}

// addr reads a memory operand "[%reg]", "[%reg+imm]", "[%reg-imm]", or
// "[%reg+%reg]".
func (p *parser) addr(l *isa.Line, s string) (rs1 Reg, o operand) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		l.Fail("bad memory operand %q", s)
		return 0, operand{}
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	// Find a top-level + or - separator (not the leading % of a register).
	sep := -1
	for idx := 1; idx < len(inner); idx++ {
		if inner[idx] == '+' || inner[idx] == '-' {
			sep = idx
			break
		}
	}
	if sep < 0 {
		return reg(l, inner), operand{isImm: true}
	}
	rs1, o = reg(l, strings.TrimSpace(inner[:sep])), p.operand(l, strings.TrimSpace(inner[sep+1:]))
	if inner[sep] == '-' {
		if !o.isImm {
			l.Fail("cannot subtract a register in address %q", s)
		}
		o.imm = -o.imm
	}
	return rs1, o
}

func fmt3(op Op, rs1 Reg, o operand, rd Reg) Insn {
	i := Insn{Op: op, Rs1: rs1, Rd: rd}
	if o.isImm {
		i.Imm = true
		i.SImm = o.imm
	} else {
		i.Rs2 = o.reg
	}
	return i
}

// parse turns one lexed line into its instructions, expanding synthetic
// instructions; it returns none for an unknown mnemonic.
func (p *parser) parse(l *isa.Line) []Insn {
	a := l.Args
	// Branches (with optional ,a annul suffix).
	base, annul := strings.CutSuffix(l.Mnemonic, ",a")
	if cond, ok := branchConds[base]; ok {
		if !l.Want(1) {
			return nil
		}
		return []Insn{{Op: OpBranch, Cond: cond, Annul: annul, Target: l.Label(a[0])}}
	}

	switch l.Mnemonic {
	case "nop":
		return []Insn{{Op: OpSethi, Rd: G0, Imm: true, SImm: 0}}

	case "call":
		if len(a) < 1 {
			l.Fail("call expects a target")
			return nil
		}
		return []Insn{{Op: OpCall, Target: l.Label(a[0])}}

	case "retl":
		return []Insn{{Op: OpJmpl, Rs1: O7, Imm: true, SImm: 8, Rd: G0}}
	case "ret":
		return []Insn{{Op: OpJmpl, Rs1: I7, Imm: true, SImm: 8, Rd: G0}}

	case "mov":
		if !l.Want(2) {
			return nil
		}
		return []Insn{fmt3(OpOr, G0, p.operand(l, a[0]), reg(l, a[1]))}

	case "clr":
		if !l.Want(1) {
			return nil
		}
		if strings.HasPrefix(a[0], "[") {
			rs1, o := p.addr(l, a[0])
			return []Insn{fmt3(OpSt, rs1, o, G0)}
		}
		return []Insn{fmt3(OpOr, G0, operand{isImm: true}, reg(l, a[0]))}

	case "cmp":
		if !l.Want(2) {
			return nil
		}
		return []Insn{fmt3(OpSubcc, reg(l, a[0]), p.operand(l, a[1]), G0)}

	case "tst":
		if !l.Want(1) {
			return nil
		}
		return []Insn{fmt3(OpOrcc, G0, operand{reg: reg(l, a[0])}, G0)}

	case "inc", "dec":
		if len(a) != 1 && len(a) != 2 {
			l.Fail("%s expects 1 or 2 operands", l.Mnemonic)
			return nil
		}
		op, amt := OpAdd, int32(1)
		if l.Mnemonic == "dec" {
			op = OpSub
		}
		if len(a) == 2 {
			amt = p.imm(l, a[0])
		}
		rd := reg(l, a[len(a)-1])
		return []Insn{fmt3(op, rd, operand{isImm: true, imm: amt}, rd)}

	case "neg":
		if !l.Want(1) {
			return nil
		}
		rd := reg(l, a[0])
		return []Insn{fmt3(OpSub, G0, operand{reg: rd}, rd)}

	case "not":
		if !l.Want(1) {
			return nil
		}
		rd := reg(l, a[0])
		return []Insn{fmt3(OpXnor, rd, operand{reg: G0}, rd)}

	case "set":
		if !l.Want(2) {
			return nil
		}
		v, rd := p.symOrNum(l, a[0]), reg(l, a[1])
		if v >= -4096 && v <= 4095 {
			return []Insn{fmt3(OpOr, G0, operand{isImm: true, imm: v}, rd)}
		}
		hi := Insn{Op: OpSethi, Rd: rd, Imm: true, SImm: int32(uint32(v) &^ 0x3ff)}
		lo := int32(uint32(v) & 0x3ff)
		if lo == 0 {
			return []Insn{hi}
		}
		return []Insn{hi, fmt3(OpOr, rd, operand{isImm: true, imm: lo}, rd)}

	case "sethi":
		if !l.Want(2) {
			return nil
		}
		return []Insn{{Op: OpSethi, Imm: true, SImm: p.imm(l, a[0]), Rd: reg(l, a[1])}}

	case "restore":
		switch len(a) {
		case 0:
			return []Insn{fmt3(OpRestore, G0, operand{reg: G0}, G0)}
		case 3:
			// fall through to generic arith below
		default:
			l.Fail("restore expects 0 or 3 operands")
			return nil
		}
	}

	if op, ok := loadMnemonics[l.Mnemonic]; ok {
		if !l.Want(2) {
			return nil
		}
		rs1, o := p.addr(l, a[0])
		return []Insn{fmt3(op, rs1, o, reg(l, a[1]))}
	}
	if op, ok := storeMnemonics[l.Mnemonic]; ok {
		if !l.Want(2) {
			return nil
		}
		rd := reg(l, a[0])
		rs1, o := p.addr(l, a[1])
		return []Insn{fmt3(op, rs1, o, rd)}
	}
	if op, ok := arithMnemonics[l.Mnemonic]; ok {
		if !l.Want(3) {
			return nil
		}
		return []Insn{fmt3(op, reg(l, a[0]), p.operand(l, a[1]), reg(l, a[2]))}
	}
	return nil
}
