package riscv

import "fmt"

// Op enumerates the RV32I base instructions the decoder produces.
type Op int

const (
	OpInvalid Op = iota
	OpLui
	OpAuipc
	OpJal
	OpJalr
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpBltu
	OpBgeu
	OpLb
	OpLh
	OpLw
	OpLbu
	OpLhu
	OpSb
	OpSh
	OpSw
	OpAddi
	OpSlti
	OpSltiu
	OpXori
	OpOri
	OpAndi
	OpSlli
	OpSrli
	OpSrai
	OpAdd
	OpSub
	OpSll
	OpSlt
	OpSltu
	OpXor
	OpSrl
	OpSra
	OpOr
	OpAnd
	OpFence
	OpEcall
	OpEbreak
	opMax // one past the last opcode, for exhaustiveness tests
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpLui:     "lui", OpAuipc: "auipc", OpJal: "jal", OpJalr: "jalr",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpBltu: "bltu", OpBgeu: "bgeu",
	OpLb: "lb", OpLh: "lh", OpLw: "lw", OpLbu: "lbu", OpLhu: "lhu",
	OpSb: "sb", OpSh: "sh", OpSw: "sw",
	OpAddi: "addi", OpSlti: "slti", OpSltiu: "sltiu", OpXori: "xori",
	OpOri: "ori", OpAndi: "andi", OpSlli: "slli", OpSrli: "srli",
	OpSrai: "srai",
	OpAdd:  "add", OpSub: "sub", OpSll: "sll", OpSlt: "slt",
	OpSltu: "sltu", OpXor: "xor", OpSrl: "srl", OpSra: "sra",
	OpOr: "or", OpAnd: "and",
	OpFence: "fence", OpEcall: "ecall", OpEbreak: "ebreak",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op?%d", int(op))
}

// Insn is one decoded RV32I instruction.
type Insn struct {
	Op       Op
	Rd       Reg
	Rs1, Rs2 Reg
	// Imm is the sign-extended immediate: the I-/S-type 12-bit value,
	// or the already-shifted U-type upper immediate.
	Imm int32
	// Disp is a branch/jal displacement in instructions (the byte
	// offset divided by 4).
	Disp int32
	// Target is an assembler-internal unresolved label.
	Target string
}

// Ref reports the label the instruction refers to, for isa.Assemble.
func (i Insn) Ref() string { return i.Target }

// IsLoad reports whether the instruction reads memory.
func (i Insn) IsLoad() bool {
	switch i.Op {
	case OpLb, OpLh, OpLw, OpLbu, OpLhu:
		return true
	}
	return false
}

// IsStore reports whether the instruction writes memory.
func (i Insn) IsStore() bool {
	switch i.Op {
	case OpSb, OpSh, OpSw:
		return true
	}
	return false
}

// MemSize returns the byte width of a load or store (0 otherwise).
func (i Insn) MemSize() int {
	switch i.Op {
	case OpLb, OpLbu, OpSb:
		return 1
	case OpLh, OpLhu, OpSh:
		return 2
	case OpLw, OpSw:
		return 4
	}
	return 0
}

// IsBranch reports a conditional branch.
func (i Insn) IsBranch() bool {
	switch i.Op {
	case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu:
		return true
	}
	return false
}

// IsReturn reports the standard return idiom jalr x0, 0(ra).
func (i Insn) IsReturn() bool {
	return i.Op == OpJalr && i.Rd == Zero && i.Rs1 == RA && i.Imm == 0
}

// String renders the instruction in standard assembly syntax, branch
// and jump displacements in relative ".%+d" form (instruction units).
func (i Insn) String() string {
	switch {
	case i.Op == OpLui || i.Op == OpAuipc:
		return fmt.Sprintf("%s %s, 0x%x", i.Op, i.Rd, uint32(i.Imm)>>12)
	case i.Op == OpJal:
		if i.Rd == Zero {
			return fmt.Sprintf("j .%+d", i.Disp)
		}
		return fmt.Sprintf("jal %s, .%+d", i.Rd, i.Disp)
	case i.Op == OpJalr:
		if i.IsReturn() {
			return "ret"
		}
		return fmt.Sprintf("jalr %s, %d(%s)", i.Rd, i.Imm, i.Rs1)
	case i.IsBranch():
		return fmt.Sprintf("%s %s, %s, .%+d", i.Op, i.Rs1, i.Rs2, i.Disp)
	case i.IsLoad():
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Rs1)
	case i.IsStore():
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rs2, i.Imm, i.Rs1)
	case i.Op == OpFence:
		return "fence"
	case i.Op == OpEcall || i.Op == OpEbreak:
		return i.Op.String()
	case isImmALU(i.Op):
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	default:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs1, i.Rs2)
	}
}

func isImmALU(op Op) bool {
	switch op {
	case OpAddi, OpSlti, OpSltiu, OpXori, OpOri, OpAndi, OpSlli, OpSrli, OpSrai:
		return true
	}
	return false
}

// Decode decodes one RV32I machine word. Words outside the checked
// subset's encodable space (bad opcodes, bad funct fields, misaligned
// control displacements) are errors, exactly as an undecodable SPARC
// word is: the checker rejects what it cannot read.
func Decode(w uint32) (Insn, error) {
	opcode := w & 0x7f
	rd := Reg((w >> 7) & 0x1f)
	funct3 := (w >> 12) & 7
	rs1 := Reg((w >> 15) & 0x1f)
	rs2 := Reg((w >> 20) & 0x1f)
	funct7 := w >> 25

	immI := int32(w) >> 20
	immS := (int32(w)>>25)<<5 | int32((w>>7)&0x1f)
	immB := (int32(w)>>31)<<12 | int32((w>>7)&1)<<11 |
		int32((w>>25)&0x3f)<<5 | int32((w>>8)&0xf)<<1
	immU := int32(w & 0xfffff000)
	immJ := (int32(w)>>31)<<20 | int32((w>>12)&0xff)<<12 |
		int32((w>>20)&1)<<11 | int32((w>>21)&0x3ff)<<1

	bad := func(what string) (Insn, error) {
		return Insn{}, fmt.Errorf("riscv: cannot decode %s word 0x%08x", what, w)
	}

	switch opcode {
	case 0x37:
		return Insn{Op: OpLui, Rd: rd, Imm: immU}, nil
	case 0x17:
		return Insn{Op: OpAuipc, Rd: rd, Imm: immU}, nil
	case 0x6f:
		if immJ%4 != 0 {
			return bad("misaligned jal")
		}
		return Insn{Op: OpJal, Rd: rd, Disp: immJ / 4}, nil
	case 0x67:
		if funct3 != 0 {
			return bad("jalr")
		}
		return Insn{Op: OpJalr, Rd: rd, Rs1: rs1, Imm: immI}, nil
	case 0x63:
		var op Op
		switch funct3 {
		case 0:
			op = OpBeq
		case 1:
			op = OpBne
		case 4:
			op = OpBlt
		case 5:
			op = OpBge
		case 6:
			op = OpBltu
		case 7:
			op = OpBgeu
		default:
			return bad("branch")
		}
		if immB%4 != 0 {
			return bad("misaligned branch")
		}
		return Insn{Op: op, Rs1: rs1, Rs2: rs2, Disp: immB / 4}, nil
	case 0x03:
		var op Op
		switch funct3 {
		case 0:
			op = OpLb
		case 1:
			op = OpLh
		case 2:
			op = OpLw
		case 4:
			op = OpLbu
		case 5:
			op = OpLhu
		default:
			return bad("load")
		}
		return Insn{Op: op, Rd: rd, Rs1: rs1, Imm: immI}, nil
	case 0x23:
		var op Op
		switch funct3 {
		case 0:
			op = OpSb
		case 1:
			op = OpSh
		case 2:
			op = OpSw
		default:
			return bad("store")
		}
		return Insn{Op: op, Rs1: rs1, Rs2: rs2, Imm: immS}, nil
	case 0x13:
		var op Op
		switch funct3 {
		case 0:
			op = OpAddi
		case 2:
			op = OpSlti
		case 3:
			op = OpSltiu
		case 4:
			op = OpXori
		case 6:
			op = OpOri
		case 7:
			op = OpAndi
		case 1:
			if funct7 != 0 {
				return bad("slli")
			}
			return Insn{Op: OpSlli, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, nil
		case 5:
			switch funct7 {
			case 0x00:
				return Insn{Op: OpSrli, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, nil
			case 0x20:
				return Insn{Op: OpSrai, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, nil
			}
			return bad("shift")
		}
		return Insn{Op: op, Rd: rd, Rs1: rs1, Imm: immI}, nil
	case 0x33:
		type rkey struct {
			f3, f7 uint32
		}
		op, ok := map[rkey]Op{
			{0, 0x00}: OpAdd, {0, 0x20}: OpSub,
			{1, 0x00}: OpSll, {2, 0x00}: OpSlt, {3, 0x00}: OpSltu,
			{4, 0x00}: OpXor, {5, 0x00}: OpSrl, {5, 0x20}: OpSra,
			{6, 0x00}: OpOr, {7, 0x00}: OpAnd,
		}[rkey{funct3, funct7}]
		if !ok {
			return bad("register ALU")
		}
		return Insn{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}, nil
	case 0x0f:
		if funct3 != 0 {
			return bad("fence")
		}
		return Insn{Op: OpFence}, nil
	case 0x73:
		switch w {
		case 0x00000073:
			return Insn{Op: OpEcall}, nil
		case 0x00100073:
			return Insn{Op: OpEbreak}, nil
		}
		return bad("system")
	}
	return bad("")
}

// encodeAt encodes a parsed instruction whose label the assembler
// resolved to displacement disp (in instructions).
func encodeAt(i Insn, disp int32) (uint32, error) {
	i.Disp = disp
	return Encode(i)
}

// Encode encodes one instruction to its machine word — the inverse of
// Decode over the decoder's image (enforced by the round-trip test).
func Encode(i Insn) (uint32, error) {
	r := func(reg Reg) uint32 { return uint32(reg) & 0x1f }
	immI := func(op Op, v int32) (uint32, error) {
		if v < -2048 || v > 2047 {
			return 0, fmt.Errorf("riscv: %s immediate %d out of 12-bit range", op, v)
		}
		return uint32(v) & 0xfff, nil
	}
	switch i.Op {
	case OpLui, OpAuipc:
		if i.Imm&0xfff != 0 {
			return 0, fmt.Errorf("riscv: %s immediate 0x%x has nonzero low bits", i.Op, uint32(i.Imm))
		}
		opc := uint32(0x37)
		if i.Op == OpAuipc {
			opc = 0x17
		}
		return uint32(i.Imm) | r(i.Rd)<<7 | opc, nil
	case OpJal:
		off := i.Disp * 4
		if off < -(1<<20) || off >= 1<<20 {
			return 0, fmt.Errorf("riscv: jal displacement %d out of range", i.Disp)
		}
		u := uint32(off)
		w := (u>>20&1)<<31 | (u>>1&0x3ff)<<21 | (u>>11&1)<<20 | (u>>12&0xff)<<12
		return w | r(i.Rd)<<7 | 0x6f, nil
	case OpJalr:
		imm, err := immI(i.Op, i.Imm)
		if err != nil {
			return 0, err
		}
		return imm<<20 | r(i.Rs1)<<15 | r(i.Rd)<<7 | 0x67, nil
	case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu:
		f3 := map[Op]uint32{OpBeq: 0, OpBne: 1, OpBlt: 4, OpBge: 5, OpBltu: 6, OpBgeu: 7}[i.Op]
		off := i.Disp * 4
		if off < -(1<<12) || off >= 1<<12 {
			return 0, fmt.Errorf("riscv: branch displacement %d out of range", i.Disp)
		}
		u := uint32(off)
		w := (u>>12&1)<<31 | (u>>5&0x3f)<<25 | (u>>1&0xf)<<8 | (u>>11&1)<<7
		return w | r(i.Rs2)<<20 | r(i.Rs1)<<15 | f3<<12 | 0x63, nil
	case OpLb, OpLh, OpLw, OpLbu, OpLhu:
		f3 := map[Op]uint32{OpLb: 0, OpLh: 1, OpLw: 2, OpLbu: 4, OpLhu: 5}[i.Op]
		imm, err := immI(i.Op, i.Imm)
		if err != nil {
			return 0, err
		}
		return imm<<20 | r(i.Rs1)<<15 | f3<<12 | r(i.Rd)<<7 | 0x03, nil
	case OpSb, OpSh, OpSw:
		f3 := map[Op]uint32{OpSb: 0, OpSh: 1, OpSw: 2}[i.Op]
		imm, err := immI(i.Op, i.Imm)
		if err != nil {
			return 0, err
		}
		return (imm>>5)<<25 | r(i.Rs2)<<20 | r(i.Rs1)<<15 | f3<<12 | (imm&0x1f)<<7 | 0x23, nil
	case OpAddi, OpSlti, OpSltiu, OpXori, OpOri, OpAndi:
		f3 := map[Op]uint32{OpAddi: 0, OpSlti: 2, OpSltiu: 3, OpXori: 4, OpOri: 6, OpAndi: 7}[i.Op]
		imm, err := immI(i.Op, i.Imm)
		if err != nil {
			return 0, err
		}
		return imm<<20 | r(i.Rs1)<<15 | f3<<12 | r(i.Rd)<<7 | 0x13, nil
	case OpSlli, OpSrli, OpSrai:
		if i.Imm < 0 || i.Imm > 31 {
			return 0, fmt.Errorf("riscv: shift amount %d out of range", i.Imm)
		}
		f3, f7 := uint32(1), uint32(0)
		switch i.Op {
		case OpSrli:
			f3 = 5
		case OpSrai:
			f3, f7 = 5, 0x20
		}
		return f7<<25 | uint32(i.Imm)<<20 | r(i.Rs1)<<15 | f3<<12 | r(i.Rd)<<7 | 0x13, nil
	case OpAdd, OpSub, OpSll, OpSlt, OpSltu, OpXor, OpSrl, OpSra, OpOr, OpAnd:
		type enc struct{ f3, f7 uint32 }
		e := map[Op]enc{
			OpAdd: {0, 0}, OpSub: {0, 0x20}, OpSll: {1, 0}, OpSlt: {2, 0},
			OpSltu: {3, 0}, OpXor: {4, 0}, OpSrl: {5, 0}, OpSra: {5, 0x20},
			OpOr: {6, 0}, OpAnd: {7, 0},
		}[i.Op]
		return e.f7<<25 | r(i.Rs2)<<20 | r(i.Rs1)<<15 | e.f3<<12 | r(i.Rd)<<7 | 0x33, nil
	case OpFence:
		return 0x0000000f, nil
	case OpEcall:
		return 0x00000073, nil
	case OpEbreak:
		return 0x00100073, nil
	}
	return 0, fmt.Errorf("riscv: cannot encode op %v", i.Op)
}
