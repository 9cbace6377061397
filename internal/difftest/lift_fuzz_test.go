package difftest

import (
	"testing"

	"mcsafe/internal/isa"
	"mcsafe/internal/rtl"
	"mcsafe/internal/sparc"
)

// refCondFalse evaluates a branch condition against all-clear condition
// codes (the state of a fresh machine), mirroring the SPARC manual's
// predicate table.
func refCondFalse(c sparc.Cond) bool {
	switch c {
	case sparc.CondA, sparc.CondNE, sparc.CondGE, sparc.CondG,
		sparc.CondCC, sparc.CondGU, sparc.CondPOS, sparc.CondVC:
		return true
	}
	return false
}

// refALU is an independent statement of the SPARC arithmetic semantics
// (kept deliberately separate from rtl.EvalBin so the fuzzer compares
// two formulations, not one formulation with itself).
func refALU(op sparc.Op, a, b uint32) (uint32, bool) {
	switch op {
	case sparc.OpAdd, sparc.OpAddcc:
		return a + b, true
	case sparc.OpSub, sparc.OpSubcc:
		return a - b, true
	case sparc.OpAnd, sparc.OpAndcc:
		return a & b, true
	case sparc.OpAndn:
		return a &^ b, true
	case sparc.OpOr, sparc.OpOrcc:
		return a | b, true
	case sparc.OpOrn:
		return a | ^b, true
	case sparc.OpXor, sparc.OpXorcc:
		return a ^ b, true
	case sparc.OpXnor:
		return ^(a ^ b), true
	case sparc.OpSll:
		return a << (b & 31), true
	case sparc.OpSrl:
		return a >> (b & 31), true
	case sparc.OpSra:
		return uint32(int32(a) >> (b & 31)), true
	case sparc.OpUMul, sparc.OpSMul:
		return a * b, true
	case sparc.OpUDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case sparc.OpSDiv:
		if b == 0 {
			return 0, false
		}
		return uint32(int32(a) / int32(b)), true
	}
	return 0, false
}

// FuzzLift decodes an arbitrary word, lifts it, and cross-checks one
// step of RTL execution against an independent reference semantics. It
// is the single-sourcing guard at the fuzz tier: every decodable word
// must have a lifting, and the lifting must execute like the manual
// says the instruction behaves.
func FuzzLift(f *testing.F) {
	f.Add(uint32(0x9de3bfa0), uint64(1)) // save %sp, -96, %sp
	f.Add(uint32(0x81c3e008), uint64(2)) // retl
	f.Add(uint32(0x01000000), uint64(3)) // nop
	f.Add(uint32(0x80102000), uint64(4)) // mov 0, %g0
	f.Fuzz(func(t *testing.T, w uint32, seed uint64) {
		i, err := sparc.Decode(w)
		if err != nil {
			return
		}
		effs := sparc.Lift(i)
		if len(effs) == 0 {
			t.Fatalf("word 0x%08x decodes to %+v but has no lifting", w, i)
		}

		nop := uint32(0x01000000)
		prog, err := isa.FromWords(sparc.Arch, []uint32{w, nop, nop, nop}, 0, nil, nil)
		if err != nil {
			return
		}
		m := isa.NewMachine(prog)

		// Deterministic register/memory state from the seed.
		s := seed
		next := func() uint32 {
			s = s*6364136223846793005 + 1442695040888963407
			return uint32(s >> 32)
		}
		var pre [32]uint32
		for r := sparc.Reg(1); r < 32; r++ {
			m.SetReg(rtl.Reg(r), next())
			pre[r] = m.Reg(rtl.Reg(r))
		}
		mem := map[uint32]byte{}
		a := pre[i.Rs1]
		b := uint32(i.SImm)
		if !i.Imm {
			b = pre[i.Rs2]
		}
		addr := a + b
		for k := uint32(0); k < 8; k++ {
			v := byte(next())
			m.Mem[addr+k] = v
			mem[addr+k] = v
		}

		stepErr := m.Step()

		switch {
		case i.Op == sparc.OpSethi:
			if stepErr != nil {
				t.Fatalf("sethi: unexpected error %v", stepErr)
			}
			if i.Rd != sparc.G0 && m.Reg(rtl.Reg(i.Rd)) != uint32(i.SImm) {
				t.Fatalf("sethi: rd = %#x, want %#x", m.Reg(rtl.Reg(i.Rd)), uint32(i.SImm))
			}

		case i.Op == sparc.OpBranch:
			if stepErr != nil {
				t.Fatalf("branch: unexpected error %v", stepErr)
			}
			taken := refCondFalse(i.Cond)
			wantPC := 1 // delay slot executes next
			switch {
			case taken && i.Cond == sparc.CondA && i.Annul:
				wantPC = int(i.Disp) // ba,a: the slot is annulled
			case !taken && i.Annul:
				wantPC = 2 // annulled untaken branch skips the slot
			}
			if m.PC != wantPC {
				t.Fatalf("branch %v annul=%v: pc = %d, want %d", i.Cond, i.Annul, m.PC, wantPC)
			}

		case i.Op == sparc.OpCall:
			if stepErr != nil {
				t.Fatalf("call: unexpected error %v", stepErr)
			}
			if m.Reg(rtl.Reg(sparc.O7)) != prog.AddrOf(0) {
				t.Fatalf("call: %%o7 = %#x, want %#x", m.Reg(rtl.Reg(sparc.O7)), prog.AddrOf(0))
			}

		case i.Op == sparc.OpJmpl:
			ret := a + b
			_, mapped := prog.IndexOf(ret)
			wantErr := !mapped && ret != 8 && ret != 0
			if (stepErr != nil) != wantErr {
				t.Fatalf("jmpl to %#x: err = %v, want error %v", ret, stepErr, wantErr)
			}

		case i.Op == sparc.OpSave, i.Op == sparc.OpRestore:
			if stepErr != nil {
				t.Fatalf("%v: unexpected error %v", i.Op, stepErr)
			}
			if i.Rd != sparc.G0 && m.Reg(rtl.Reg(i.Rd)) != a+b {
				t.Fatalf("%v: rd = %#x, want %#x", i.Op, m.Reg(rtl.Reg(i.Rd)), a+b)
			}

		case i.Op == sparc.OpLdd, i.Op == sparc.OpStd:
			if stepErr == nil {
				t.Fatalf("%v: doubleword access must fault", i.Op)
			}

		case i.IsLoad():
			if stepErr != nil {
				t.Fatalf("load: unexpected error %v", stepErr)
			}
			size := i.MemSize()
			var raw uint32
			for k := 0; k < size; k++ {
				raw = raw<<8 | uint32(mem[addr+uint32(k)])
			}
			signed := i.Op == sparc.OpLdsb || i.Op == sparc.OpLdsh
			want := rtl.Extend(raw, size, signed)
			if i.Rd != sparc.G0 && m.Reg(rtl.Reg(i.Rd)) != want {
				t.Fatalf("%v [%#x]: rd = %#x, want %#x", i.Op, addr, m.Reg(rtl.Reg(i.Rd)), want)
			}

		case i.IsStore():
			if stepErr != nil {
				t.Fatalf("store: unexpected error %v", stepErr)
			}
			size := i.MemSize()
			v := pre[i.Rd]
			for k := 0; k < size; k++ {
				want := byte(v >> uint(8*(size-1-k)))
				if got := m.Mem[addr+uint32(k)]; got != want {
					t.Fatalf("%v [%#x]+%d: mem = %#x, want %#x", i.Op, addr, k, got, want)
				}
			}

		default: // ALU
			want, ok := refALU(i.Op, a, b)
			if !ok {
				if stepErr == nil {
					t.Fatalf("%v with b=%#x: expected fault, got none", i.Op, b)
				}
				return
			}
			if stepErr != nil {
				t.Fatalf("%v: unexpected error %v", i.Op, stepErr)
			}
			if i.Rd != sparc.G0 && m.Reg(rtl.Reg(i.Rd)) != want {
				t.Fatalf("%v: rd = %#x, want %#x", i.Op, m.Reg(rtl.Reg(i.Rd)), want)
			}
			if i.SetsCC() {
				wantN := want&0x80000000 != 0
				wantZ := want == 0
				if m.N != wantN || m.Z != wantZ {
					t.Fatalf("%v: N,Z = %v,%v, want %v,%v", i.Op, m.N, m.Z, wantN, wantZ)
				}
			}
		}
	})
}
