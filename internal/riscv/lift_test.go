package riscv

import (
	"math/rand"
	"testing"

	"mcsafe/internal/rtl"
)

// repInsn builds a representative instruction for an opcode, with fields
// populated the way the decoder would populate them.
func repInsn(op Op) Insn {
	switch op {
	case OpLui, OpAuipc:
		return Insn{Op: op, Rd: 1, Imm: 0x12000}
	case OpJal:
		return Insn{Op: op, Rd: 1, Disp: 2}
	case OpJalr:
		return Insn{Op: op, Rd: 1, Rs1: 2, Imm: 4}
	case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu:
		return Insn{Op: op, Rs1: 1, Rs2: 2, Disp: 2}
	case OpLb, OpLh, OpLw, OpLbu, OpLhu:
		return Insn{Op: op, Rd: 1, Rs1: 2, Imm: 4}
	case OpSb, OpSh, OpSw:
		return Insn{Op: op, Rs1: 1, Rs2: 2, Imm: 4}
	case OpSlli, OpSrli, OpSrai:
		return Insn{Op: op, Rd: 1, Rs1: 2, Imm: 3}
	case OpFence, OpEcall, OpEbreak:
		return Insn{Op: op}
	}
	return Insn{Op: op, Rd: 1, Rs1: 2, Rs2: 3}
}

// TestLiftRV32IExhaustive: every opcode the decoder can produce has
// exactly one lifter rule — Lift returns a non-empty effect sequence
// for all of them, and nil only for OpInvalid. The same guard as the
// SPARC front-end's TestLiftExhaustive: a new opcode without a lifting
// rule fails here, not at analysis time. Each sequence also carries at
// most one effect per role, the contract rtl.Shape relies on.
func TestLiftRV32IExhaustive(t *testing.T) {
	for op := OpInvalid + 1; op < opMax; op++ {
		effs := Lift(repInsn(op))
		if len(effs) == 0 {
			t.Errorf("op %v: no lifter rule (Lift returned %v)", op, effs)
		}
		if _, ok := rtl.ShapeOf(effs); !ok {
			t.Errorf("op %v: two effects share a role in %v", op, effs)
		}
	}
	if Lift(Insn{Op: OpInvalid}) != nil {
		t.Error("OpInvalid must not lift")
	}
}

// TestLiftDecodedWords: any word the decoder accepts must lift, to at
// most one effect per role. Random words double as a probe that no
// decodable encoding falls through the lifter.
func TestLiftDecodedWords(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	decoded := 0
	for n := 0; n < 200000; n++ {
		w := rng.Uint32()
		i, err := Decode(w)
		if err != nil {
			continue
		}
		decoded++
		effs := Lift(i)
		if len(effs) == 0 {
			t.Fatalf("decodable word 0x%08x (%v) does not lift", w, i)
		}
		if _, ok := rtl.ShapeOf(effs); !ok {
			t.Fatalf("word 0x%08x: two effects share a role in %v", w, effs)
		}
	}
	if decoded == 0 {
		t.Fatal("no random word decoded; the probe is vacuous")
	}
}

// TestLiftFusedBranch pins the fused compare-and-branch shape the
// ISA-neutral pipeline depends on: one instruction carrying SetCC
// followed by the Branch that reads it (RV32I has no condition codes,
// so the comparison cannot be a separate instruction as on SPARC).
func TestLiftFusedBranch(t *testing.T) {
	effs := Lift(Insn{Op: OpBlt, Rs1: 10, Rs2: 11, Disp: 3})
	if len(effs) != 2 {
		t.Fatalf("branch lifted to %d effects, want SetCC+Branch pair", len(effs))
	}
	cc, ok := effs[0].(rtl.SetCC)
	if !ok || cc.Op != rtl.Sub {
		t.Fatalf("first effect %v, want SetCC(Sub)", effs[0])
	}
	br, ok := effs[1].(rtl.Branch)
	if !ok || br.Cond != rtl.CondLt || br.Disp != 3 {
		t.Fatalf("second effect %v, want Branch(Lt, +3)", effs[1])
	}
}

// TestEncodeDecodeRoundTrip: Encode is the inverse of Decode over the
// representative instruction of every encodable opcode.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for op := OpInvalid + 1; op < opMax; op++ {
		i := repInsn(op)
		if op == OpLui || op == OpAuipc {
			i.Imm = 0x12000 // U-type immediates carry zero low bits
		}
		w, err := Encode(i)
		if err != nil {
			t.Errorf("op %v: encode: %v", op, err)
			continue
		}
		back, err := Decode(w)
		if err != nil {
			t.Errorf("op %v: decode(0x%08x): %v", op, w, err)
			continue
		}
		w2, err := Encode(back)
		if err != nil {
			t.Errorf("op %v: re-encode: %v", op, err)
			continue
		}
		if w2 != w {
			t.Errorf("op %v: 0x%08x -> %v -> 0x%08x", op, w, back, w2)
		}
	}
}

// TestReturnIdiom: jalr x0, 0(ra) is the return the CFG keys on, and
// nothing else is.
func TestReturnIdiom(t *testing.T) {
	if !(Insn{Op: OpJalr, Rd: Zero, Rs1: RA}).IsReturn() {
		t.Error("ret not recognized")
	}
	if (Insn{Op: OpJalr, Rd: RA, Rs1: RA}).IsReturn() {
		t.Error("jalr ra, 0(ra) is a call, not a return")
	}
	if (Insn{Op: OpJalr, Rd: Zero, Rs1: RA, Imm: 4}).IsReturn() {
		t.Error("nonzero offset is not the return idiom")
	}
}
