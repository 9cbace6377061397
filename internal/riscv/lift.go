package riscv

import (
	"mcsafe/internal/rtl"
)

// Lift translates one decoded RV32I instruction into its canonical RTL
// effect sequence — the same single-source-of-semantics contract as the
// SPARC lifter: every opcode the decoder can produce has exactly one
// rule here (enforced by TestLiftRV32IExhaustive), and the ISA-neutral
// pipeline consumes only the result.
//
// RV32I has no condition codes, so conditional branches lift to a fused
// SetCC+Branch pair: the comparison and the transfer are one
// instruction, exactly as SPARC's subcc/bcc split them across two. It
// also has no register windows and no delay slots, which the front-end
// reports through its trait flags rather than through RTL.
func Lift(i Insn) []rtl.Effect {
	rd := rtl.Reg(i.Rd)
	rs1 := rtl.RegX{R: rtl.Reg(i.Rs1)}
	rs2 := rtl.RegX{R: rtl.Reg(i.Rs2)}
	imm := rtl.Const{V: int64(i.Imm)}
	// jal and jalr link the address of the next instruction.
	link := rtl.PC{Off: 4}
	switch i.Op {
	case OpLui:
		return []rtl.Effect{rtl.Assign{Dst: rd, Src: rtl.Const{V: int64(i.Imm)}}}

	case OpAuipc:
		// pc-relative address formation: the result depends on code
		// placement, which the checked subset does not model as data.
		return []rtl.Effect{rtl.Unsupported{Code: "policy",
			Msg: "pc-relative address formation not supported", Dst: rd}}

	case OpJal:
		if i.Rd == Zero {
			// j label: a plain goto.
			return []rtl.Effect{rtl.Branch{Cond: rtl.CondAlways, Disp: i.Disp}}
		}
		return []rtl.Effect{
			rtl.Assign{Dst: rd, Src: link},
			rtl.Call{Disp: i.Disp},
		}

	case OpJalr:
		effs := []rtl.Effect{}
		if i.Rd != Zero {
			effs = append(effs, rtl.Assign{Dst: rd, Src: link})
		}
		return append(effs, rtl.Jump{Target: rtl.Bin{Op: rtl.Add, A: rs1, B: imm}})

	case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu:
		return []rtl.Effect{
			rtl.SetCC{Op: rtl.Sub, A: rs1, B: rs2},
			rtl.Branch{Cond: liftCond(i.Op), Disp: i.Disp},
		}

	case OpLb, OpLh, OpLw, OpLbu, OpLhu:
		signed := i.Op == OpLb || i.Op == OpLh
		return []rtl.Effect{rtl.Load{Dst: rd, Addr: liftAddr(i), Size: i.MemSize(), Signed: signed}}

	case OpSb, OpSh, OpSw:
		return []rtl.Effect{rtl.Store{Src: rs2, Addr: liftAddr(i), Size: i.MemSize()}}

	case OpSlti, OpSltiu, OpSlt, OpSltu:
		// set-less-than materializes a comparison as data; the linear
		// typestate domain has no shape for it.
		return []rtl.Effect{rtl.Unsupported{Code: "policy",
			Msg: "set-less-than not supported", Dst: rd}}

	case OpFence:
		// No data or control effect in the single-threaded model: the
		// canonical nop shape (zero-to-zero move).
		return []rtl.Effect{rtl.Assign{Dst: rtl.ZeroReg, Src: rtl.Const{V: 0}}}

	case OpEcall, OpEbreak:
		return []rtl.Effect{rtl.Unsupported{Code: "policy",
			Msg: "environment call not supported", Dst: rtl.ZeroReg}}
	}

	// addi rd, rs, 0 (the mv idiom) is a plain register copy, and lifts
	// to the canonical copy shape Or(zero, rs) — exactly as SPARC's
	// synthetic mov does. Lifting it as rs + 0 would degrade a copied
	// array base to an interior pointer in the typestate domain.
	if i.Op == OpAddi && i.Imm == 0 {
		return []rtl.Effect{rtl.Assign{Dst: rd,
			Src: rtl.Bin{Op: rtl.Or, A: rtl.RegX{R: rtl.ZeroReg}, B: rs1}}}
	}

	op, ok := liftALUOp(i.Op)
	if !ok {
		return nil
	}
	var b rtl.Expr = rs2
	if isImmALU(i.Op) {
		b = imm
	}
	return []rtl.Effect{rtl.Assign{Dst: rd, Src: rtl.Bin{Op: op, A: rs1, B: b}}}
}

// liftCond maps a fused compare-and-branch onto the condition the
// SetCC(Sub, rs1, rs2) pair makes true.
func liftCond(op Op) rtl.Cond {
	switch op {
	case OpBeq:
		return rtl.CondEq
	case OpBne:
		return rtl.CondNe
	case OpBlt:
		return rtl.CondLt
	case OpBge:
		return rtl.CondGe
	case OpBltu:
		return rtl.CondLtU
	case OpBgeu:
		return rtl.CondGeU
	}
	return rtl.CondNever
}

// liftAddr is the effective address of a load or store.
func liftAddr(i Insn) rtl.Expr {
	return rtl.Bin{Op: rtl.Add, A: rtl.RegX{R: rtl.Reg(i.Rs1)}, B: rtl.Const{V: int64(i.Imm)}}
}

// liftALUOp maps the arithmetic/logical/shift opcodes onto rtl.BinOp.
func liftALUOp(op Op) (rtl.BinOp, bool) {
	switch op {
	case OpAdd, OpAddi:
		return rtl.Add, true
	case OpSub:
		return rtl.Sub, true
	case OpAnd, OpAndi:
		return rtl.And, true
	case OpOr, OpOri:
		return rtl.Or, true
	case OpXor, OpXori:
		return rtl.Xor, true
	case OpSll, OpSlli:
		return rtl.ShL, true
	case OpSrl, OpSrli:
		return rtl.ShRL, true
	case OpSra, OpSrai:
		return rtl.ShRA, true
	}
	return 0, false
}
