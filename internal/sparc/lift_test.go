package sparc

import (
	"math/rand"
	"testing"

	"mcsafe/internal/rtl"
)

// repInsn builds a representative instruction for an opcode, with fields
// populated the way the decoder would populate them.
func repInsn(op Op) Insn {
	switch op {
	case OpBranch:
		return Insn{Op: op, Cond: CondE, Disp: 2}
	case OpCall:
		return Insn{Op: op, Disp: 4}
	case OpSethi:
		return Insn{Op: op, Rd: 1, Imm: true, SImm: 0x2000}
	}
	return Insn{Op: op, Rd: 1, Rs1: 2, Rs2: 3}
}

// TestLiftExhaustive: every opcode the decoder can produce has exactly
// one lifter rule — Lift returns a non-empty effect sequence for all of
// them, and nil only for OpInvalid. This is the guard that keeps the
// decoder and the shared semantics in sync: adding an opcode without a
// lifting rule fails here, not at analysis time. Each sequence also
// carries at most one effect per role, the contract rtl.Shape relies on.
func TestLiftExhaustive(t *testing.T) {
	for op := OpInvalid + 1; op <= OpCall; op++ {
		i := repInsn(op)
		effs := Lift(i)
		if len(effs) == 0 {
			t.Errorf("op %v: no lifter rule (Lift returned %v)", op, effs)
		}
		if _, ok := rtl.ShapeOf(effs); !ok {
			t.Errorf("op %v: two effects share a role in %v", op, effs)
		}
		// Both addressing modes must lift for format-3 instructions.
		if op != OpBranch && op != OpCall && op != OpSethi {
			imm := i
			imm.Imm, imm.SImm = true, 8
			effs := Lift(imm)
			if len(effs) == 0 {
				t.Errorf("op %v (immediate form): no lifter rule", op)
			}
			if _, ok := rtl.ShapeOf(effs); !ok {
				t.Errorf("op %v (immediate form): two effects share a role in %v", op, effs)
			}
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
			t.Fatalf("word 0x%08x decodes to %+v but does not lift", w, i)
		}
		if _, ok := rtl.ShapeOf(effs); !ok {
			t.Fatalf("word 0x%08x: two effects share a role in %v", w, effs)
		}
	}
	if decoded == 0 {
		t.Fatal("no random words decoded; generator broken")
	}
}

// TestLiftShapes spot-checks the canonical effect sequences the
// consumers rely on.
func TestLiftShapes(t *testing.T) {
	// cc-setting arithmetic: assign first, then the cc update (the WLP
	// generator builds its substitution in that order).
	effs := Lift(Insn{Op: OpSubcc, Rd: 1, Rs1: 2, Rs2: 3})
	if len(effs) != 2 {
		t.Fatalf("subcc lifts to %d effects, want 2", len(effs))
	}
	if _, ok := effs[0].(rtl.Assign); !ok {
		t.Errorf("subcc effect 0 is %T, want Assign", effs[0])
	}
	if _, ok := effs[1].(rtl.SetCC); !ok {
		t.Errorf("subcc effect 1 is %T, want SetCC", effs[1])
	}

	// save: window shift first, then the Win=+1 assignment.
	effs = Lift(Insn{Op: OpSave, Rd: 14, Rs1: 14, Imm: true, SImm: -96})
	if len(effs) != 2 {
		t.Fatalf("save lifts to %d effects, want 2", len(effs))
	}
	if _, ok := effs[0].(rtl.SaveWindow); !ok {
		t.Errorf("save effect 0 is %T, want SaveWindow", effs[0])
	}
	a, ok := effs[1].(rtl.Assign)
	if !ok || a.Win != 1 {
		t.Errorf("save effect 1 is %T (win %d), want Assign with Win=+1", effs[1], a.Win)
	}

	// call: link write before the transfer, so the interpreter commits
	// %o7 from the pre-state PC.
	effs = Lift(Insn{Op: OpCall, Disp: 4})
	if len(effs) != 2 {
		t.Fatalf("call lifts to %d effects, want 2", len(effs))
	}
	link, ok := effs[0].(rtl.Assign)
	if !ok || link.Dst != rtl.Reg(O7) {
		t.Errorf("call effect 0 = %v, want link write to %%o7", effs[0])
	}

	// Immediate vs register operands stay distinguishable.
	or := Lift(Insn{Op: OpOr, Rd: 1, Rs1: 0, Imm: true, SImm: 5})
	bin := or[0].(rtl.Assign).Src.(rtl.Bin)
	if _, isConst := bin.B.(rtl.Const); !isConst {
		t.Errorf("or immediate operand lifted to %T, want Const", bin.B)
	}
	or = Lift(Insn{Op: OpOr, Rd: 1, Rs1: 0, Rs2: 0})
	bin = or[0].(rtl.Assign).Src.(rtl.Bin)
	if _, isReg := bin.B.(rtl.RegX); !isReg {
		t.Errorf("or register operand lifted to %T, want RegX (even for %%g0)", bin.B)
	}
}
