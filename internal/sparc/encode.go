package sparc

import "fmt"

// SPARC V8 instruction formats:
//
//	Format 1 (op=1): call        | op(2) | disp30(30) |
//	Format 2 (op=0): sethi       | op | rd(5) | op2=100 | imm22 |
//	                 Bicc        | op | a(1) | cond(4) | op2=010 | disp22 |
//	Format 3 (op=2 arith, op=3 mem):
//	                 | op | rd(5) | op3(6) | rs1(5) | i(1) | asi(8)/simm13 |

var arithOp3 = map[Op]uint32{
	OpAdd: 0x00, OpAnd: 0x01, OpOr: 0x02, OpXor: 0x03,
	OpSub: 0x04, OpAndn: 0x05, OpOrn: 0x06, OpXnor: 0x07,
	OpUMul: 0x0a, OpSMul: 0x0b, OpUDiv: 0x0e, OpSDiv: 0x0f,
	OpAddcc: 0x10, OpAndcc: 0x11, OpOrcc: 0x12, OpXorcc: 0x13, OpSubcc: 0x14,
	OpSll: 0x25, OpSrl: 0x26, OpSra: 0x27,
	OpJmpl: 0x38, OpSave: 0x3c, OpRestore: 0x3d,
}

var memOp3 = map[Op]uint32{
	OpLd: 0x00, OpLdub: 0x01, OpLduh: 0x02, OpLdd: 0x03,
	OpSt: 0x04, OpStb: 0x05, OpSth: 0x06, OpStd: 0x07,
	OpLdsb: 0x09, OpLdsh: 0x0a,
}

var arithOp3Rev = reverse(arithOp3)
var memOp3Rev = reverse(memOp3)

func reverse(m map[Op]uint32) map[uint32]Op {
	r := make(map[uint32]Op, len(m))
	for op, code := range m {
		r[code] = op
	}
	return r
}

// Encode converts an instruction to its 32-bit machine word. Branch and
// call targets must already be resolved to word displacements.
func Encode(i Insn) (uint32, error) {
	switch {
	case i.Op == OpCall:
		return 1<<30 | (uint32(i.Disp) & 0x3fffffff), nil

	case i.Op == OpBranch:
		if i.Disp < -(1<<21) || i.Disp >= 1<<21 {
			return 0, fmt.Errorf("sparc: branch displacement %d out of range", i.Disp)
		}
		w := uint32(0)
		if i.Annul {
			w |= 1 << 29
		}
		w |= uint32(i.Cond&0xf) << 25
		w |= 0x2 << 22
		w |= uint32(i.Disp) & 0x3fffff
		return w, nil

	case i.Op == OpSethi:
		if i.SImm&0x3ff != 0 {
			return 0, fmt.Errorf("sparc: sethi immediate 0x%x has nonzero low bits", uint32(i.SImm))
		}
		return uint32(i.Rd)<<25 | 0x4<<22 | (uint32(i.SImm)>>10)&0x3fffff, nil
	}

	var op, op3 uint32
	if code, ok := arithOp3[i.Op]; ok {
		op, op3 = 2, code
	} else if code, ok := memOp3[i.Op]; ok {
		op, op3 = 3, code
	} else {
		return 0, fmt.Errorf("sparc: cannot encode op %v", i.Op)
	}
	w := op<<30 | uint32(i.Rd)<<25 | op3<<19 | uint32(i.Rs1)<<14
	if i.Imm {
		if i.SImm < -4096 || i.SImm > 4095 {
			return 0, fmt.Errorf("sparc: immediate %d out of simm13 range", i.SImm)
		}
		w |= 1 << 13
		w |= uint32(i.SImm) & 0x1fff
	} else {
		w |= uint32(i.Rs2)
	}
	return w, nil
}

// encodeAt encodes a parsed instruction whose label the assembler
// resolved to word displacement disp.
func encodeAt(i Insn, disp int32) (uint32, error) {
	i.Disp = disp
	return Encode(i)
}

// Decode converts a 32-bit machine word back into an instruction.
func Decode(w uint32) (Insn, error) {
	switch w >> 30 {
	case 1: // call
		disp := int32(w<<2) >> 2 // sign-extend 30 bits
		return Insn{Op: OpCall, Disp: disp}, nil

	case 0: // format 2
		op2 := (w >> 22) & 0x7
		switch op2 {
		case 0x4: // sethi
			return Insn{
				Op:   OpSethi,
				Rd:   Reg((w >> 25) & 0x1f),
				Imm:  true,
				SImm: int32((w & 0x3fffff) << 10),
			}, nil
		case 0x2: // Bicc
			disp := int32(w<<10) >> 10 // sign-extend 22 bits
			return Insn{
				Op:    OpBranch,
				Annul: w&(1<<29) != 0,
				Cond:  Cond((w >> 25) & 0xf),
				Disp:  disp,
			}, nil
		}
		return Insn{}, fmt.Errorf("sparc: cannot decode format-2 word 0x%08x (op2=%d)", w, op2)

	case 2, 3: // format 3
		op3 := (w >> 19) & 0x3f
		var op Op
		var ok bool
		if w>>30 == 2 {
			op, ok = arithOp3Rev[op3]
		} else {
			op, ok = memOp3Rev[op3]
		}
		if !ok {
			return Insn{}, fmt.Errorf("sparc: cannot decode word 0x%08x (op=%d op3=0x%02x)", w, w>>30, op3)
		}
		i := Insn{
			Op:  op,
			Rd:  Reg((w >> 25) & 0x1f),
			Rs1: Reg((w >> 14) & 0x1f),
		}
		if w&(1<<13) != 0 {
			i.Imm = true
			i.SImm = int32(w<<19) >> 19 // sign-extend 13 bits
		} else {
			i.Rs2 = Reg(w & 0x1f)
		}
		return i, nil
	}
	return Insn{}, fmt.Errorf("sparc: cannot decode word 0x%08x", w)
}
