package sparc

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mcsafe/internal/isa"
)

func TestRegString(t *testing.T) {
	if SP.String() != "%sp" || FP.String() != "%fp" {
		t.Error("sp/fp aliases wrong")
	}
	if Reg(9).String() != "%o1" || Reg(17).String() != "%l1" || Reg(25).String() != "%i1" {
		t.Error("bank naming wrong")
	}
}

func TestRegBanks(t *testing.T) {
	if !G0.IsGlobal() || !O0.IsOut() || !L0.IsLocal() || !I0.IsIn() {
		t.Error("bank predicates wrong")
	}
	if SP.IsGlobal() || !SP.IsOut() {
		t.Error("sp should be an out register")
	}
}

// Figure 1 of the paper: summing the elements of an integer array.
const fig1Source = `
1:  mov %o0,%o2      ! move %o0 into %o2
2:  clr %o0          ! set %o0 to zero
3:  cmp %o0,%o1      ! compare %o0 and %o1
4:  bge 12           ! branch to 12 if %o0 >= %o1
5:  clr %g3          ! set %g3 to zero
6:  sll %g3,2,%g2    ! %g2 = 4 x %g3
7:  ld [%o2+%g2],%g2 ! load from address %o2+%g2
8:  inc %g3          ! %g3 = %g3 + 1
9:  cmp %g3,%o1      ! compare %g3 and %o1
10: bl 6             ! branch to 6 if %g3 < %o1
11: add %o0,%g2,%o0  ! %o0 = %o0 + %g2
12: retl
13: nop
`

// assemble runs the SPARC front-end and decodes the emitted words back
// to native instructions for field-level assertions.
func assemble(t *testing.T, src string, opts isa.AsmOptions) (*isa.Program, []Insn) {
	t.Helper()
	p, err := Arch.Assemble(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, decodeWords(t, p.Words)
}

// decodeWords decodes machine words to native instructions.
func decodeWords(t *testing.T, words []uint32) []Insn {
	t.Helper()
	insns := make([]Insn, len(words))
	for idx, w := range words {
		insn, err := Decode(w)
		if err != nil {
			t.Fatalf("word %d: %v", idx, err)
		}
		insns[idx] = insn
	}
	return insns
}

func assembleFig1(t *testing.T) *isa.Program {
	t.Helper()
	p, _ := assemble(t, fig1Source, isa.AsmOptions{})
	return p
}

func TestAssembleFig1(t *testing.T) {
	p, insns := assemble(t, fig1Source, isa.AsmOptions{})
	if len(p.Insns) != 13 {
		t.Fatalf("expected 13 instructions, got %d", len(p.Insns))
	}
	// Instruction 0 is mov expanded to or %g0,%o0,%o2.
	i0 := insns[0]
	if i0.Op != OpOr || i0.Rs1 != G0 || i0.Imm || i0.Rs2 != O0 || i0.Rd != 10 {
		t.Errorf("insn 0 = %v", i0)
	}
	// Instruction 3 is bge with displacement to label "12" (index 11).
	i3 := insns[3]
	if i3.Op != OpBranch || i3.Cond != CondGE || i3.Disp != 8 {
		t.Errorf("insn 3 = %+v", i3)
	}
	// Instruction 9 is bl back to index 5.
	i9 := insns[9]
	if i9.Op != OpBranch || i9.Cond != CondL || i9.Disp != -4 {
		t.Errorf("insn 9 = %+v", i9)
	}
	// Instruction 6 is the array load ld [%o2+%g2],%g2.
	i6 := insns[6]
	if i6.Op != OpLd || i6.Imm || i6.Rs1 != 10 || i6.Rs2 != 2 || i6.Rd != 2 {
		t.Errorf("insn 6 = %+v", i6)
	}
	// Instruction 11 is retl = jmpl %o7+8,%g0, recognized as a return.
	if !insns[11].IsReturn() {
		t.Errorf("insn 11 = %+v not a return", insns[11])
	}
	// Instruction 12 is nop.
	if !insns[12].IsNop() {
		t.Errorf("insn 12 = %+v not a nop", insns[12])
	}
}

func TestSyntheticExpansion(t *testing.T) {
	src := `
start:
	set 0x20000,%o0
	set 42,%o1
	inc 4,%o2
	dec %o3
	tst %o4
	neg %o5
	not %l0
	clr [%o0+4]
	retl
	nop
`
	_, insns := assemble(t, src, isa.AsmOptions{})
	// set 0x20000 -> single sethi (low bits zero); set 42 -> or %g0,42.
	if insns[0].Op != OpSethi || uint32(insns[0].SImm) != 0x20000 {
		t.Errorf("set high: %+v", insns[0])
	}
	if insns[1].Op != OpOr || !insns[1].Imm || insns[1].SImm != 42 {
		t.Errorf("set low: %+v", insns[1])
	}
	if insns[2].Op != OpAdd || insns[2].SImm != 4 {
		t.Errorf("inc: %+v", insns[2])
	}
	if insns[3].Op != OpSub || insns[3].SImm != 1 {
		t.Errorf("dec: %+v", insns[3])
	}
	if insns[4].Op != OpOrcc || insns[4].Rd != G0 {
		t.Errorf("tst: %+v", insns[4])
	}
	if insns[5].Op != OpSub || insns[5].Rs1 != G0 {
		t.Errorf("neg: %+v", insns[5])
	}
	if insns[6].Op != OpXnor {
		t.Errorf("not: %+v", insns[6])
	}
	if insns[7].Op != OpSt || insns[7].Rd != G0 || insns[7].SImm != 4 {
		t.Errorf("clr mem: %+v", insns[7])
	}
}

func TestSetWithDataSymbol(t *testing.T) {
	src := "set counter,%o0\nld [%o0],%o1\nretl\nnop"
	_, insns := assemble(t, src, isa.AsmOptions{DataSyms: map[string]uint32{"counter": 0x20400}})
	if insns[0].Op != OpSethi || uint32(insns[0].SImm) != 0x20400 {
		t.Fatalf("set sym: %+v", insns[0])
	}
	// Unknown symbol fails.
	if _, err := Arch.Assemble("set nosuch,%o0\nretl\nnop", isa.AsmOptions{}); err == nil {
		t.Error("unknown data symbol should fail")
	}
}

func TestHiLoOperands(t *testing.T) {
	src := "sethi %hi(0x12345400),%o0\nor %o0,%lo(0x12345403),%o0\nretl\nnop"
	_, insns := assemble(t, src, isa.AsmOptions{})
	if uint32(insns[0].SImm) != 0x12345400 {
		t.Errorf("hi: %x", uint32(insns[0].SImm))
	}
	if insns[1].SImm != 0x3 {
		t.Errorf("lo: %x", insns[1].SImm)
	}
}

func TestAddressingForms(t *testing.T) {
	src := `
	ld [%fp-8],%o0
	ld [%o0],%o1
	ld [%o0+12],%o2
	ld [%o0+%o3],%o4
	st %o0,[%sp+64]
	retl
	nop
`
	_, insns := assemble(t, src, isa.AsmOptions{})
	if insns[0].SImm != -8 || insns[0].Rs1 != FP {
		t.Errorf("fp-8: %+v", insns[0])
	}
	if insns[1].SImm != 0 || !insns[1].Imm {
		t.Errorf("[reg]: %+v", insns[1])
	}
	if insns[3].Imm || insns[3].Rs2 != 11 {
		t.Errorf("[reg+reg]: %+v", insns[3])
	}
	if insns[4].Op != OpSt || insns[4].Rd != O0 || insns[4].SImm != 64 {
		t.Errorf("st: %+v", insns[4])
	}
}

func TestCallAndProcs(t *testing.T) {
	src := `
main:
	call helper
	nop
	retl
	nop
helper:
	retl
	nop
`
	p, insns := assemble(t, src, isa.AsmOptions{Entry: "main"})
	if insns[0].Op != OpCall || insns[0].Disp != 4 {
		t.Fatalf("call: %+v", insns[0])
	}
	if len(p.Procs) != 2 || p.Procs[0] != "main" || p.Procs[1] != "helper" {
		t.Fatalf("procs = %v", p.Procs)
	}
	if idx, ok := p.ProcEntry("helper"); !ok || idx != 4 {
		t.Fatalf("helper entry = %d, %v", idx, ok)
	}
}

func TestAnnulledBranch(t *testing.T) {
	src := "cmp %o0,%o1\nbe,a done\nadd %o0,1,%o0\ndone: retl\nnop"
	_, insns := assemble(t, src, isa.AsmOptions{})
	if !insns[1].Annul || insns[1].Cond != CondE {
		t.Fatalf("annulled branch: %+v", insns[1])
	}
}

func TestEncodeDecodeRoundTripFig1(t *testing.T) {
	p := assembleFig1(t)
	for idx, w := range p.Words {
		insn, err := Decode(w)
		if err != nil {
			t.Fatalf("decode %d: %v", idx, err)
		}
		w2, err := Encode(insn)
		if err != nil {
			t.Fatalf("encode %d: %v", idx, err)
		}
		if w2 != w {
			t.Errorf("round trip %d: %08x -> %08x", idx, w, w2)
		}
	}
}

// randInsn generates a random encodable instruction.
func randInsn(r *rand.Rand) Insn {
	arithOps := []Op{OpAdd, OpAddcc, OpSub, OpSubcc, OpAnd, OpAndcc, OpAndn,
		OpOr, OpOrcc, OpOrn, OpXor, OpXorcc, OpXnor, OpSll, OpSrl, OpSra,
		OpUMul, OpSMul, OpUDiv, OpSDiv, OpJmpl, OpSave, OpRestore}
	memOps := []Op{OpLd, OpLdub, OpLduh, OpLdsb, OpLdsh, OpLdd, OpSt, OpStb, OpSth, OpStd}
	switch r.Intn(4) {
	case 0:
		i := Insn{
			Op:   OpBranch,
			Cond: Cond(r.Intn(16)),
			Disp: int32(r.Intn(1<<20) - 1<<19),
		}
		if r.Intn(2) == 0 {
			i.Annul = true
		}
		return i
	case 1:
		return Insn{Op: OpCall, Disp: int32(r.Intn(1 << 24))}
	case 2:
		return Insn{Op: OpSethi, Rd: Reg(r.Intn(32)), Imm: true,
			SImm: int32(uint32(r.Intn(1<<22)) << 10)}
	default:
		ops := arithOps
		if r.Intn(2) == 0 {
			ops = memOps
		}
		i := Insn{
			Op:  ops[r.Intn(len(ops))],
			Rd:  Reg(r.Intn(32)),
			Rs1: Reg(r.Intn(32)),
		}
		if r.Intn(2) == 0 {
			i.Imm = true
			i.SImm = int32(r.Intn(8192) - 4096)
		} else {
			i.Rs2 = Reg(r.Intn(32))
		}
		return i
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		insn := randInsn(r)
		w, err := Encode(insn)
		if err != nil {
			t.Fatalf("encode %+v: %v", insn, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("decode %08x (%+v): %v", w, insn, err)
		}
		if got != insn {
			t.Fatalf("round trip:\n in  %+v\n out %+v", insn, got)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	// op=0, op2=0 (UNIMP) is not something we accept.
	if _, err := Decode(0x00000000); err == nil {
		t.Error("UNIMP should not decode")
	}
	// op=2 with an undefined op3.
	if _, err := Decode(2<<30 | 0x3f<<19); err == nil {
		t.Error("undefined op3 should not decode")
	}
}

func TestEncodeRangeChecks(t *testing.T) {
	if _, err := Encode(Insn{Op: OpAdd, Imm: true, SImm: 5000}); err == nil {
		t.Error("simm13 overflow should fail")
	}
	if _, err := Encode(Insn{Op: OpBranch, Cond: CondA, Disp: 1 << 22}); err == nil {
		t.Error("disp22 overflow should fail")
	}
	if _, err := Encode(Insn{Op: OpSethi, Imm: true, SImm: 0x123}); err == nil {
		t.Error("sethi with low bits should fail")
	}
}

func TestFromWords(t *testing.T) {
	p := assembleFig1(t)
	q, err := isa.FromWords(Arch, p.Words, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Insns, p.Insns) {
		t.Errorf("FromWords lowers differently:\n%+v\n%+v", q.Insns, p.Insns)
	}
	if len(q.Procs) != 1 || q.Procs[0] != "proc_0" {
		t.Errorf("procs = %v", q.Procs)
	}
}

func TestAddrMapping(t *testing.T) {
	p := assembleFig1(t)
	if p.AddrOf(0) != isa.DefaultBase || p.AddrOf(3) != isa.DefaultBase+12 {
		t.Error("AddrOf wrong")
	}
	if idx, ok := p.IndexOf(isa.DefaultBase + 12); !ok || idx != 3 {
		t.Error("IndexOf wrong")
	}
	if _, ok := p.IndexOf(isa.DefaultBase + 2); ok {
		t.Error("unaligned address should not resolve")
	}
	if _, ok := p.IndexOf(isa.DefaultBase + 4*1000); ok {
		t.Error("out-of-range address should not resolve")
	}
}

func TestDisassembleContainsBranchTargets(t *testing.T) {
	p := assembleFig1(t)
	d := p.Disassemble()
	if !strings.Contains(d, "bge @11") || !strings.Contains(d, "bl @5") {
		t.Errorf("disassembly missing targets:\n%s", d)
	}
	if !strings.Contains(d, "ld [%o2+%g2],%g2") {
		t.Errorf("disassembly missing load:\n%s", d)
	}
}

func TestInsnPredicates(t *testing.T) {
	ld := Insn{Op: OpLd}
	st := Insn{Op: OpSt}
	if !ld.IsLoad() || ld.IsStore() || !st.IsStore() || st.IsLoad() {
		t.Error("load/store predicates wrong")
	}
	if ld.MemSize() != 4 || (Insn{Op: OpLdub}).MemSize() != 1 || (Insn{Op: OpSth}).MemSize() != 2 {
		t.Error("MemSize wrong")
	}
	if !(Insn{Op: OpSubcc}).SetsCC() || (Insn{Op: OpSub}).SetsCC() {
		t.Error("SetsCC wrong")
	}
	if !(Insn{Op: OpBranch, Cond: CondA}).IsUncondBranch() {
		t.Error("IsUncondBranch wrong")
	}
}
