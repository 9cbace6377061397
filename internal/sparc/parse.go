package sparc

import (
	"fmt"
	"strconv"
	"strings"
)

// parseError decorates errors with the source line.
func parseError(line int, format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...))
}

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

func (p *parser) parseOperand(s string, line int) (operand, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "%") && !strings.HasPrefix(s, "%hi(") && !strings.HasPrefix(s, "%lo(") {
		r, err := ParseReg(s)
		if err != nil {
			return operand{}, parseError(line, "%v", err)
		}
		return operand{reg: r}, nil
	}
	v, err := p.parseImm(s, line)
	if err != nil {
		return operand{}, err
	}
	return operand{isImm: true, imm: v}, nil
}

func (p *parser) parseImm(s string, line int) (int32, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "%hi(") && strings.HasSuffix(s, ")") {
		v, err := p.symOrNum(s[4:len(s)-1], line)
		if err != nil {
			return 0, err
		}
		return int32(uint32(v) &^ 0x3ff), nil
	}
	if strings.HasPrefix(s, "%lo(") && strings.HasSuffix(s, ")") {
		v, err := p.symOrNum(s[4:len(s)-1], line)
		if err != nil {
			return 0, err
		}
		return int32(uint32(v) & 0x3ff), nil
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, parseError(line, "bad immediate %q", s)
	}
	if v < -(1<<31) || v > 1<<32-1 {
		return 0, parseError(line, "immediate %d out of 32-bit range", v)
	}
	return int32(v), nil
}

func (p *parser) symOrNum(s string, line int) (int32, error) {
	s = strings.TrimSpace(s)
	if addr, ok := p.dataSyms[s]; ok {
		return int32(addr), nil
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, parseError(line, "unknown symbol or bad number %q", s)
	}
	return int32(v), nil
}

// parseAddr parses a memory operand "[%reg]", "[%reg+imm]", "[%reg-imm]",
// or "[%reg+%reg]".
func (p *parser) parseAddr(s string, line int) (rs1 Reg, o operand, err error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, operand{}, parseError(line, "bad memory operand %q", s)
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
		r, err := ParseReg(inner)
		if err != nil {
			return 0, operand{}, parseError(line, "%v", err)
		}
		return r, operand{isImm: true, imm: 0}, nil
	}
	r, err := ParseReg(strings.TrimSpace(inner[:sep]))
	if err != nil {
		return 0, operand{}, parseError(line, "%v", err)
	}
	rest := strings.TrimSpace(inner[sep+1:])
	op2, err := p.parseOperand(rest, line)
	if err != nil {
		return 0, operand{}, err
	}
	if inner[sep] == '-' {
		if !op2.isImm {
			return 0, operand{}, parseError(line, "cannot subtract a register in address %q", s)
		}
		op2.imm = -op2.imm
	}
	return r, op2, nil
}

type parser struct {
	dataSyms map[string]uint32
}

// splitOperands splits on commas that are not inside parentheses or
// brackets.
func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func fmt3(op Op, rs1 Reg, o operand, rd Reg, line int) Insn {
	i := Insn{Op: op, Rs1: rs1, Rd: rd, Line: line}
	if o.isImm {
		i.Imm = true
		i.SImm = o.imm
	} else {
		i.Rs2 = o.reg
	}
	return i
}

// parseLine parses one source line into zero or more instructions,
// expanding synthetic instructions.
func (p *parser) parseLine(text string, line int) ([]string, []Insn, error) {
	// Strip comments.
	if idx := strings.IndexAny(text, "!#"); idx >= 0 {
		text = text[:idx]
	}
	text = strings.TrimSpace(text)

	var labels []string
	for {
		idx := strings.Index(text, ":")
		if idx < 0 {
			break
		}
		lbl := strings.TrimSpace(text[:idx])
		if lbl == "" || strings.ContainsAny(lbl, " \t[](),") {
			break
		}
		labels = append(labels, lbl)
		text = strings.TrimSpace(text[idx+1:])
	}
	if text == "" {
		return labels, nil, nil
	}

	fields := strings.SplitN(text, " ", 2)
	mnem := strings.ToLower(strings.TrimSpace(fields[0]))
	rest := ""
	if len(fields) == 2 {
		rest = strings.TrimSpace(fields[1])
	}
	args := []string{}
	if rest != "" {
		args = splitOperands(rest)
	}

	need := func(n int) error {
		if len(args) != n {
			return parseError(line, "%s expects %d operands, got %d", mnem, n, len(args))
		}
		return nil
	}

	// Branches (with optional ,a annul suffix).
	base := mnem
	annul := false
	if strings.HasSuffix(base, ",a") {
		base = strings.TrimSuffix(base, ",a")
		annul = true
	}
	if cond, ok := branchConds[base]; ok {
		if err := need(1); err != nil {
			return nil, nil, err
		}
		return labels, []Insn{{Op: OpBranch, Cond: cond, Annul: annul, Target: args[0], Line: line}}, nil
	}

	switch mnem {
	case "nop":
		return labels, []Insn{{Op: OpSethi, Rd: G0, Imm: true, SImm: 0, Line: line}}, nil

	case "call":
		if len(args) < 1 {
			return nil, nil, parseError(line, "call expects a target")
		}
		return labels, []Insn{{Op: OpCall, Target: args[0], Line: line}}, nil

	case "retl":
		return labels, []Insn{{Op: OpJmpl, Rs1: O7, Imm: true, SImm: 8, Rd: G0, Line: line}}, nil
	case "ret":
		return labels, []Insn{{Op: OpJmpl, Rs1: I7, Imm: true, SImm: 8, Rd: G0, Line: line}}, nil

	case "mov":
		if err := need(2); err != nil {
			return nil, nil, err
		}
		src, err := p.parseOperand(args[0], line)
		if err != nil {
			return nil, nil, err
		}
		rd, err := ParseReg(args[1])
		if err != nil {
			return nil, nil, parseError(line, "%v", err)
		}
		return labels, []Insn{fmt3(OpOr, G0, src, rd, line)}, nil

	case "clr":
		if err := need(1); err != nil {
			return nil, nil, err
		}
		if strings.HasPrefix(args[0], "[") {
			rs1, o, err := p.parseAddr(args[0], line)
			if err != nil {
				return nil, nil, err
			}
			i := fmt3(OpSt, rs1, o, G0, line)
			return labels, []Insn{i}, nil
		}
		rd, err := ParseReg(args[0])
		if err != nil {
			return nil, nil, parseError(line, "%v", err)
		}
		return labels, []Insn{fmt3(OpOr, G0, operand{isImm: true}, rd, line)}, nil

	case "cmp":
		if err := need(2); err != nil {
			return nil, nil, err
		}
		rs1, err := ParseReg(args[0])
		if err != nil {
			return nil, nil, parseError(line, "%v", err)
		}
		o, err := p.parseOperand(args[1], line)
		if err != nil {
			return nil, nil, err
		}
		return labels, []Insn{fmt3(OpSubcc, rs1, o, G0, line)}, nil

	case "tst":
		if err := need(1); err != nil {
			return nil, nil, err
		}
		rs, err := ParseReg(args[0])
		if err != nil {
			return nil, nil, parseError(line, "%v", err)
		}
		return labels, []Insn{fmt3(OpOrcc, G0, operand{reg: rs}, G0, line)}, nil

	case "inc", "dec":
		op := OpAdd
		if mnem == "dec" {
			op = OpSub
		}
		var amt int32 = 1
		var rdArg string
		switch len(args) {
		case 1:
			rdArg = args[0]
		case 2:
			v, err := p.parseImm(args[0], line)
			if err != nil {
				return nil, nil, err
			}
			amt, rdArg = v, args[1]
		default:
			return nil, nil, parseError(line, "%s expects 1 or 2 operands", mnem)
		}
		rd, err := ParseReg(rdArg)
		if err != nil {
			return nil, nil, parseError(line, "%v", err)
		}
		return labels, []Insn{fmt3(op, rd, operand{isImm: true, imm: amt}, rd, line)}, nil

	case "neg":
		if err := need(1); err != nil {
			return nil, nil, err
		}
		rd, err := ParseReg(args[0])
		if err != nil {
			return nil, nil, parseError(line, "%v", err)
		}
		return labels, []Insn{fmt3(OpSub, G0, operand{reg: rd}, rd, line)}, nil

	case "not":
		if err := need(1); err != nil {
			return nil, nil, err
		}
		rd, err := ParseReg(args[0])
		if err != nil {
			return nil, nil, parseError(line, "%v", err)
		}
		return labels, []Insn{fmt3(OpXnor, rd, operand{reg: G0}, rd, line)}, nil

	case "set":
		if err := need(2); err != nil {
			return nil, nil, err
		}
		v, err := p.symOrNum(args[0], line)
		if err != nil {
			return nil, nil, err
		}
		rd, err := ParseReg(args[1])
		if err != nil {
			return nil, nil, parseError(line, "%v", err)
		}
		if v >= -4096 && v <= 4095 {
			return labels, []Insn{fmt3(OpOr, G0, operand{isImm: true, imm: v}, rd, line)}, nil
		}
		hi := Insn{Op: OpSethi, Rd: rd, Imm: true, SImm: int32(uint32(v) &^ 0x3ff), Line: line}
		lo := int32(uint32(v) & 0x3ff)
		if lo == 0 {
			return labels, []Insn{hi}, nil
		}
		return labels, []Insn{hi, fmt3(OpOr, rd, operand{isImm: true, imm: lo}, rd, line)}, nil

	case "sethi":
		if err := need(2); err != nil {
			return nil, nil, err
		}
		v, err := p.parseImm(args[0], line)
		if err != nil {
			return nil, nil, err
		}
		rd, err := ParseReg(args[1])
		if err != nil {
			return nil, nil, parseError(line, "%v", err)
		}
		return labels, []Insn{{Op: OpSethi, Rd: rd, Imm: true, SImm: v, Line: line}}, nil

	case "restore":
		switch len(args) {
		case 0:
			return labels, []Insn{fmt3(OpRestore, G0, operand{reg: G0}, G0, line)}, nil
		case 3:
			// fall through to generic arith below
		default:
			return nil, nil, parseError(line, "restore expects 0 or 3 operands")
		}
	}

	if op, ok := loadMnemonics[mnem]; ok {
		if err := need(2); err != nil {
			return nil, nil, err
		}
		rs1, o, err := p.parseAddr(args[0], line)
		if err != nil {
			return nil, nil, err
		}
		rd, err := ParseReg(args[1])
		if err != nil {
			return nil, nil, parseError(line, "%v", err)
		}
		return labels, []Insn{fmt3(op, rs1, o, rd, line)}, nil
	}
	if op, ok := storeMnemonics[mnem]; ok {
		if err := need(2); err != nil {
			return nil, nil, err
		}
		rd, err := ParseReg(args[0])
		if err != nil {
			return nil, nil, parseError(line, "%v", err)
		}
		rs1, o, err := p.parseAddr(args[1], line)
		if err != nil {
			return nil, nil, err
		}
		return labels, []Insn{fmt3(op, rs1, o, rd, line)}, nil
	}
	if op, ok := arithMnemonics[mnem]; ok {
		if err := need(3); err != nil {
			return nil, nil, err
		}
		rs1, err := ParseReg(args[0])
		if err != nil {
			return nil, nil, parseError(line, "%v", err)
		}
		o, err := p.parseOperand(args[1], line)
		if err != nil {
			return nil, nil, err
		}
		rd, err := ParseReg(args[2])
		if err != nil {
			return nil, nil, parseError(line, "%v", err)
		}
		return labels, []Insn{fmt3(op, rs1, o, rd, line)}, nil
	}

	return nil, nil, parseError(line, "unknown mnemonic %q", mnem)
}
