package difftest

import (
	"fmt"
	"math/rand"
	"reflect"

	"mcsafe/internal/isa"
	"mcsafe/internal/sparc"
)

// encodableOps lists every op the encoder accepts, grouped by format.
var (
	fmt3ArithOps = []sparc.Op{
		sparc.OpAdd, sparc.OpAddcc, sparc.OpSub, sparc.OpSubcc,
		sparc.OpAnd, sparc.OpAndcc, sparc.OpAndn,
		sparc.OpOr, sparc.OpOrcc, sparc.OpOrn,
		sparc.OpXor, sparc.OpXorcc, sparc.OpXnor,
		sparc.OpSll, sparc.OpSrl, sparc.OpSra,
		sparc.OpUMul, sparc.OpSMul, sparc.OpUDiv, sparc.OpSDiv,
		sparc.OpJmpl, sparc.OpSave, sparc.OpRestore,
	}
	fmt3MemOps = []sparc.Op{
		sparc.OpLd, sparc.OpLdub, sparc.OpLduh, sparc.OpLdsb, sparc.OpLdsh,
		sparc.OpLdd, sparc.OpSt, sparc.OpStb, sparc.OpSth, sparc.OpStd,
	}
)

// GenInsn draws one canonical random instruction: only the fields the
// instruction's format carries are populated, exactly as Decode produces
// them, so decode(encode(i)) == i must hold field for field.
func GenInsn(r *rand.Rand) sparc.Insn {
	switch r.Intn(10) {
	case 0: // call
		return sparc.Insn{Op: sparc.OpCall, Disp: int32(r.Intn(1<<30)) - 1<<29}
	case 1: // branch
		return sparc.Insn{
			Op:    sparc.OpBranch,
			Cond:  sparc.Cond(r.Intn(16)),
			Annul: r.Intn(2) == 1,
			Disp:  int32(r.Intn(1<<22)) - 1<<21,
		}
	case 2: // sethi
		return sparc.Insn{
			Op:   sparc.OpSethi,
			Rd:   sparc.Reg(r.Intn(32)),
			Imm:  true,
			SImm: int32(uint32(r.Intn(1<<22)) << 10),
		}
	default: // format 3
		var op sparc.Op
		if r.Intn(3) == 0 {
			op = fmt3MemOps[r.Intn(len(fmt3MemOps))]
		} else {
			op = fmt3ArithOps[r.Intn(len(fmt3ArithOps))]
		}
		i := sparc.Insn{
			Op:  op,
			Rd:  sparc.Reg(r.Intn(32)),
			Rs1: sparc.Reg(r.Intn(32)),
		}
		if r.Intn(2) == 0 {
			i.Imm = true
			i.SImm = int32(r.Intn(8192)) - 4096
		} else {
			i.Rs2 = sparc.Reg(r.Intn(32))
		}
		return i
	}
}

// CheckInsnRoundTrip asserts decode(encode(i)) == i for a canonical
// instruction.
func CheckInsnRoundTrip(i sparc.Insn) error {
	w, err := sparc.Encode(i)
	if err != nil {
		return fmt.Errorf("encode(%v): %v", i, err)
	}
	back, err := sparc.Decode(w)
	if err != nil {
		return fmt.Errorf("decode(encode(%v)) = decode(0x%08x): %v", i, w, err)
	}
	if back != i {
		return fmt.Errorf("round trip: %v -> 0x%08x -> %v", i, w, back)
	}
	return nil
}

// ignoredBitsZero reports whether w uses no don't-care encoding bits.
// The only such bits in the supported subset are the asi field (bits
// 5..12) of a register-register format-3 instruction, which Decode
// discards. Words with those bits set decode fine but cannot re-encode
// bit-identically.
func ignoredBitsZero(w uint32) bool {
	op := w >> 30
	if (op == 2 || op == 3) && w&(1<<13) == 0 {
		return w&0x1fe0 == 0
	}
	return true
}

// CheckWordRoundTrip asserts the decoder laws on one arbitrary word:
// decoding must not panic (the caller wraps in a fuzz target), a
// decoded instruction must re-encode without error, re-encoding must be
// bit-identical when the word has no don't-care bits, and
// decode/encode/decode must be a fixed point in all cases.
func CheckWordRoundTrip(w uint32) error {
	i, err := sparc.Decode(w)
	if err != nil {
		// Undecodable words are fine; the checker rejects the binary.
		return nil
	}
	w2, err := sparc.Encode(i)
	if err != nil {
		return fmt.Errorf("decode(0x%08x) = %v does not re-encode: %v", w, i, err)
	}
	if ignoredBitsZero(w) && w2 != w {
		return fmt.Errorf("word round trip: 0x%08x -> %v -> 0x%08x", w, i, w2)
	}
	i2, err := sparc.Decode(w2)
	if err != nil {
		return fmt.Errorf("re-decode(0x%08x): %v", w2, err)
	}
	if i2 != i {
		return fmt.Errorf("decode not idempotent: 0x%08x -> %v, 0x%08x -> %v", w, i, w2, i2)
	}
	return nil
}

// CheckLowering asserts that every word of an assembled program lowers
// to the program's own Insn: the architecture-neutral half of
// CheckProgramRoundTrip.
func CheckLowering(p *isa.Program) error {
	for idx, w := range p.Words {
		got, err := p.Arch.Lower(w)
		if err != nil {
			return fmt.Errorf("word %d: lower: %v", idx, err)
		}
		if want := p.Insns[idx]; !reflect.DeepEqual(got, want) {
			return fmt.Errorf("word %d: program insn %q %v != lowered %q %v", idx, want.Text, want.RTL, got.Text, got.RTL)
		}
	}
	return nil
}

// CheckProgramRoundTrip asserts CheckLowering on an assembled SPARC
// program, the decoder laws on every word, and that every word
// re-encodes bit-identically.
func CheckProgramRoundTrip(p *isa.Program) error {
	if err := CheckLowering(p); err != nil {
		return err
	}
	for idx, w := range p.Words {
		if err := CheckWordRoundTrip(w); err != nil {
			return fmt.Errorf("word %d: %v", idx, err)
		}
		d, err := sparc.Decode(w)
		if err != nil {
			return fmt.Errorf("word %d: decode: %v", idx, err)
		}
		w2, err := sparc.Encode(d)
		if err != nil {
			return fmt.Errorf("word %d: re-encode: %v", idx, err)
		}
		if w2 != w {
			return fmt.Errorf("word %d: 0x%08x re-encodes to 0x%08x", idx, w, w2)
		}
	}
	return nil
}
