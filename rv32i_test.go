package mcsafe

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"mcsafe/internal/difftest"
	"mcsafe/internal/isa"
)

// The RV32I end-to-end programs: the array-summation policy of Figure 1
// restated over the RV32I calling convention (arguments in %a0/%a1).
const rvSumSpec = `
region V
loc e  int    state init region V summary
val arr int[n] state {e} region V
constraint n >= 1
invoke %a0 = arr
invoke %a1 = n
allow V int ro
allow V int[n] rfo
`

// rvSumSafe sums arr[0..n) with word loads at word stride: every
// access is in bounds, aligned, and alias-stable.
const rvSumSafe = `
sum:
  mv a2, a0
  li a0, 0
  li a3, 0
loop:
  bge a3, a1, done
  slli a4, a3, 2
  add a4, a2, a4
  lw a5, 0(a4)
  add a0, a0, a5
  addi a3, a3, 1
  j loop
done:
  ret
`

// rvSumOOB runs the same loop one element too far (exit on n < i, so
// arr[n] is read).
const rvSumOOB = `
sum:
  mv a2, a0
  li a0, 0
  li a3, 0
loop:
  blt a1, a3, done
  slli a4, a3, 2
  add a4, a2, a4
  lw a5, 0(a4)
  add a0, a0, a5
  addi a3, a3, 1
  j loop
done:
  ret
`

// rvByteSpec and rvByteSum: summing a byte array with byte loads. Every
// access is in bounds and (trivially) aligned, but the addresses walk
// the array at byte stride — exactly the shape hardware aliasing makes
// unsafe, so the only failing condition class is "alias".
const rvByteSpec = `
region V
loc e  byte   state init region V summary
val buf byte[n] state {e} region V
constraint n >= 1
invoke %a0 = buf
invoke %a1 = n
allow V byte ro
allow V byte[n] rfo
`

const rvByteSum = `
bsum:
  mv a2, a0
  li a0, 0
  li a3, 0
loop:
  bge a3, a1, done
  add a4, a2, a3
  lbu a5, 0(a4)
  add a0, a0, a5
  addi a3, a3, 1
  j loop
done:
  ret
`

func checkArch(t *testing.T, arch, src, spec, entry string) *Result {
	t.Helper()
	s, err := ParseSpecArch(spec, arch)
	if err != nil {
		t.Fatal(err)
	}
	p, err := AssembleArch(arch, src, s, entry)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Check(context.Background(), p, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// codeSet is the sorted set of violation codes in a result.
func codeSet(res *Result) []string {
	seen := map[string]bool{}
	for _, v := range res.Violations {
		seen[v.Code] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// TestRV32ISumSafe: the word-stride summation proves safe end to end —
// including the alias-stability conditions the rv32i front-end turns
// on, which must be emitted (visible in the conditions dump) and
// discharged.
func TestRV32ISumSafe(t *testing.T) {
	res := checkArch(t, "rv32i", rvSumSafe, rvSumSpec, "sum")
	if !res.Safe {
		t.Fatalf("safe RV32I summation rejected: %v", res.Violations)
	}
	if res.Arch() != "rv32i" {
		t.Errorf("result arch %q, want rv32i", res.Arch())
	}
	if !strings.Contains(res.Conditions(), "alias-stable") {
		t.Error("no alias-stability conditions were emitted for an aliasing architecture")
	}
}

// TestRV32ISumOOB: the off-by-one variant is rejected with the oob
// class; its alias conditions still discharge (the overrunning address
// is word-aligned, just out of bounds), so "alias" must not appear.
func TestRV32ISumOOB(t *testing.T) {
	res := checkArch(t, "rv32i", rvSumOOB, rvSumSpec, "sum")
	if res.Safe {
		t.Fatal("out-of-bounds RV32I summation accepted")
	}
	codes := codeSet(res)
	if got := strings.Join(codes, ","); got != CodeOOB {
		t.Errorf("violation codes %v, want exactly [%s]", codes, CodeOOB)
	}
}

// TestRV32IAliasUnstable: byte-stride addressing is in bounds and
// aligned but not alias-stable — the violation class specific to
// hardware-aliasing architectures, and only that class.
func TestRV32IAliasUnstable(t *testing.T) {
	res := checkArch(t, "rv32i", rvByteSum, rvByteSpec, "bsum")
	if res.Safe {
		t.Fatal("alias-unstable RV32I program accepted")
	}
	codes := codeSet(res)
	if got := strings.Join(codes, ","); got != CodeAlias {
		t.Errorf("violation codes %v, want exactly [%s]", codes, CodeAlias)
	}
}

// The SPARC statements of the same two summation programs, for the
// cross-ISA lockstep comparison below.
const spSumSpec = `
region V
loc e  int    state init region V summary
val arr int[n] state {e} region V
constraint n >= 1
invoke %o0 = arr
invoke %o1 = n
allow V int ro
allow V int[n] rfo
`

const spSumSafe = `
sum:
  mov %o0,%o2
  clr %o0
  clr %g3
loop:
  cmp %g3,%o1
  bge done
  nop
  sll %g3,2,%g2
  ld [%o2+%g2],%g2
  add %o0,%g2,%o0
  inc %g3
  ba loop
  nop
done:
  retl
  nop
`

const spSumOOB = `
sum:
  mov %o0,%o2
  clr %o0
  clr %g3
loop:
  cmp %g3,%o1
  bg done
  nop
  sll %g3,2,%g2
  ld [%o2+%g2],%g2
  add %o0,%g2,%o0
  inc %g3
  ba loop
  nop
done:
  retl
  nop
`

// TestCrossISALockstep: the same program checked through both
// front-ends reaches the same verdict and charges the same violation
// classes — the portability claim of the architecture seam, stated as
// a test. (SPARC's exit test is "g > n" where RV32I's is "n < i": the
// identical loop logic under each ISA's branch repertoire.)
func TestCrossISALockstep(t *testing.T) {
	cases := []struct {
		name         string
		spSrc, rvSrc string
		wantSafe     bool
	}{
		{"sum-safe", spSumSafe, rvSumSafe, true},
		{"sum-oob", spSumOOB, rvSumOOB, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := checkArch(t, "sparc", tc.spSrc, spSumSpec, "sum")
			rv := checkArch(t, "rv32i", tc.rvSrc, rvSumSpec, "sum")
			if sp.Safe != tc.wantSafe || rv.Safe != tc.wantSafe {
				t.Fatalf("verdicts diverge: sparc=%v rv32i=%v want %v\nsparc: %v\nrv32i: %v",
					sp.Safe, rv.Safe, tc.wantSafe, sp.Violations, rv.Violations)
			}
			spCodes, rvCodes := codeSet(sp), codeSet(rv)
			if strings.Join(spCodes, ",") != strings.Join(rvCodes, ",") {
				t.Errorf("violation classes diverge: sparc=%v rv32i=%v", spCodes, rvCodes)
			}
		})
	}
}

// TestArchMismatchRejected: a program checks only against a spec parsed
// for its own architecture.
func TestArchMismatchRejected(t *testing.T) {
	rvSpec, err := ParseSpecArch(rvSumSpec, "rv32i")
	if err != nil {
		t.Fatal(err)
	}
	spSpec, err := ParseSpecArch(spSumSpec, "sparc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := AssembleArch("rv32i", rvSumSafe, rvSpec, "sum")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New().Check(context.Background(), p, spSpec); err == nil {
		t.Fatal("rv32i program accepted against a sparc spec")
	}
}

// TestFingerprintArchDomainSeparation: identical machine words
// submitted under different ISAs decode to different programs and must
// hash apart — the regression guard for the v3 fingerprint encoding,
// which leads with the architecture name. 0x40000033 is decodable by
// both front-ends (SPARC: call; RV32I: sub x0, x0, x0).
func TestFingerprintArchDomainSeparation(t *testing.T) {
	words := []uint32{0x40000033, 0x40000033}
	sp, err := FromWordsArch("sparc", words, 0x10000, map[string]int{"entry": 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := FromWordsArch("rv32i", words, 0x10000, map[string]int{"entry": 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Fingerprint() == rv.Fingerprint() {
		t.Fatalf("cross-ISA fingerprint collision: %s", sp.Fingerprint())
	}
}

// TestArches: both front-ends are linked and discoverable.
func TestArches(t *testing.T) {
	got := strings.Join(Arches(), ",")
	if got != "rv32i,sparc" {
		t.Errorf("Arches() = %q, want rv32i,sparc", got)
	}
}

// rvMachine assembles an RV32I program (spec may be empty) and returns
// an interpreter stopped at its entry, with its calling convention.
func rvMachine(t *testing.T, src, spec, entry string) (*isa.Machine, *isa.Convention) {
	t.Helper()
	var s *Spec
	if spec != "" {
		var err error
		if s, err = ParseSpecArch(spec, "rv32i"); err != nil {
			t.Fatal(err)
		}
	}
	p, err := AssembleArch("rv32i", src, s, entry)
	if err != nil {
		t.Fatal(err)
	}
	return isa.NewMachine(p.prog), p.prog.Arch.Conv()
}

// TestRV32IExecSum: the approved RV32I summation executes — it returns
// its array's sum in %a0 and exits through ret.
func TestRV32IExecSum(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for n := 1; n <= 12; n++ {
		m, conv := rvMachine(t, rvSumSafe, rvSumSpec, "sum")
		const base = 0x40000
		var want int32
		for i := 0; i < n; i++ {
			v := int32(r.Intn(2001) - 1000)
			m.Store32(base+uint32(4*i), uint32(v))
			want += v
		}
		m.SetReg(conv.ArgRegs[0], base)
		m.SetReg(conv.ArgRegs[1], uint32(n))
		if err := m.Run(10000); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := int32(m.Reg(conv.RetReg)); got != want {
			t.Errorf("n=%d: sum = %d, want %d", n, got, want)
		}
	}
}

// TestRV32IExecCalls: rvCallsAsm runs to its end. jal links the next
// instruction's address, so both calls of zhelper return past
// themselves (each adds 1 to %a0), the host function log runs once,
// and main's ret leaves the entry frame.
func TestRV32IExecCalls(t *testing.T) {
	m, conv := rvMachine(t, rvCallsAsm, rvCallsSpec, "main")
	m.SetReg(conv.SP, 0x7f000000)
	var hosts []string
	m.HostCall = func(name string, _ *isa.Machine) { hosts = append(hosts, name) }
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(conv.RetReg); got != 2 {
		t.Errorf("%%a0 = %d after two calls of zhelper, want 2", got)
	}
	if !slices.Equal(hosts, []string{"log"}) {
		t.Errorf("host calls %q, want [log]", hosts)
	}
}

// TestRV32IExecBranches: each fused compare-and-branch reads the flags
// of its own comparison, and its outcome agrees with Go's comparison,
// both taken and not taken.
func TestRV32IExecBranches(t *testing.T) {
	ops := []struct {
		op  string
		cmp func(a, b uint32) bool
	}{
		{"beq", func(a, b uint32) bool { return a == b }},
		{"bne", func(a, b uint32) bool { return a != b }},
		{"blt", func(a, b uint32) bool { return int32(a) < int32(b) }},
		{"bge", func(a, b uint32) bool { return int32(a) >= int32(b) }},
		{"bltu", func(a, b uint32) bool { return a < b }},
		{"bgeu", func(a, b uint32) bool { return a >= b }},
	}
	pairs := [][2]uint32{{1, 2}, {2, 1}, {5, 5}, {0xffffffff, 1}, {1, 0xffffffff}, {0x80000000, 0x7fffffff}}
	for _, o := range ops {
		src := fmt.Sprintf("f:\n  %s a0, a1, yes\n  li a0, 0\n  ret\nyes:\n  li a0, 1\n  ret\n", o.op)
		seen := map[bool]bool{}
		for _, ab := range pairs {
			m, conv := rvMachine(t, src, "", "f")
			m.SetReg(conv.ArgRegs[0], ab[0])
			m.SetReg(conv.ArgRegs[1], ab[1])
			if err := m.Run(10); err != nil {
				t.Fatalf("%s %#x, %#x: %v", o.op, ab[0], ab[1], err)
			}
			taken := m.Reg(conv.RetReg) == 1
			if want := o.cmp(ab[0], ab[1]); taken != want {
				t.Errorf("%s %#x, %#x: taken = %v, want %v", o.op, ab[0], ab[1], taken, want)
			}
			seen[taken] = true
		}
		if !seen[true] || !seen[false] {
			t.Errorf("%s: the pairs did not exercise both outcomes", o.op)
		}
	}
}

// TestRV32IExecWorlds: the execution oracle on RV32I. In every
// environment drawn from rvSumSpec the approved rvSumSafe exits without
// a trap, and the rejected rvSumOOB traps oob in at least one.
func TestRV32IExecWorlds(t *testing.T) {
	spec, err := ParseSpecArch(rvSumSpec, "rv32i")
	if err != nil {
		t.Fatal(err)
	}
	safe, err := AssembleArch("rv32i", rvSumSafe, spec, "sum")
	if err != nil {
		t.Fatal(err)
	}
	oob, err := AssembleArch("rv32i", rvSumOOB, spec, "sum")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	oobTraps := 0
	for wi := 0; wi < 8; wi++ {
		world, err := difftest.BuildWorld(spec.spec, r)
		if err != nil {
			t.Fatal(err)
		}
		if trap, reason := world.Exec(safe.prog, 10000); trap != nil || reason != "exit" {
			t.Errorf("world %d: approved rvSumSafe ended with trap %v, reason %q", wi, trap, reason)
		}
		if trap, _ := world.Exec(oob.prog, 10000); trap != nil && trap.Kind == "oob" {
			oobTraps++
		}
	}
	if oobTraps == 0 {
		t.Error("rvSumOOB trapped oob in no world")
	}
}

// TestExecByteOrder: a sub-word load of a stored word reads the bytes
// its architecture puts at the lowest address: the least significant
// on RV32I (little-endian), the most significant on SPARC (big-endian).
func TestExecByteOrder(t *testing.T) {
	cases := []struct {
		arch, src string
		want      uint32
	}{
		{"rv32i", "f:\n  sw a1, 0(a0)\n  lbu a0, 0(a0)\n  ret\n", 0x44},
		{"rv32i", "f:\n  sw a1, 0(a0)\n  lhu a0, 0(a0)\n  ret\n", 0x3344},
		{"rv32i", "f:\n  sb a1, 3(a0)\n  lw a0, 0(a0)\n  ret\n", 0x44000000},
		{"sparc", "f:\n  st %o1, [%o0]\n  ldub [%o0], %o0\n  retl\n  nop\n", 0x11},
		{"sparc", "f:\n  st %o1, [%o0]\n  lduh [%o0], %o0\n  retl\n  nop\n", 0x1122},
		{"sparc", "f:\n  stb %o1, [%o0+3]\n  ld [%o0], %o0\n  retl\n  nop\n", 0x44},
	}
	for _, c := range cases {
		p, err := AssembleArch(c.arch, c.src, nil, "f")
		if err != nil {
			t.Fatal(err)
		}
		m, conv := isa.NewMachine(p.prog), p.prog.Arch.Conv()
		m.SetReg(conv.ArgRegs[0], 0x40000)
		m.SetReg(conv.ArgRegs[1], 0x11223344)
		if err := m.Run(10); err != nil {
			t.Fatalf("%s %q: %v", c.arch, c.src, err)
		}
		if got := m.Reg(conv.RetReg); got != c.want {
			t.Errorf("%s %q: read %#x, want %#x", c.arch, c.src, got, c.want)
		}
	}
}
