package difftest

import (
	"testing"

	"mcsafe/internal/isa"
	"mcsafe/internal/progs"
	"mcsafe/internal/riscv"
	"mcsafe/internal/solver"
	"mcsafe/internal/sparc"
)

// FuzzDecode exercises the decoder laws on arbitrary 32-bit words:
// Decode must never panic, and any word it accepts must re-encode
// (bit-identically when the word has no don't-care bits) and re-decode
// to the same instruction.
func FuzzDecode(f *testing.F) {
	f.Add(uint32(0))
	f.Add(uint32(0x01000000)) // nop (sethi 0, %g0)
	f.Add(uint32(0x40000000)) // call
	f.Add(uint32(0x80102000)) // mov 0, %g0
	f.Add(uint32(0xc0062004)) // ld [%i0+4], ...
	f.Add(uint32(0x10800002)) // ba
	f.Add(uint32(0x81c3e008)) // retl
	f.Add(uint32(0x9de3bfa0)) // save %sp, -96, %sp
	f.Add(uint32(0xffffffff))
	f.Fuzz(func(t *testing.T, w uint32) {
		if err := CheckWordRoundTrip(w); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzAsmRoundTrip feeds arbitrary text to both assemblers: parsing must
// never panic, every word of a program either accepts must lower to the
// program's instruction, and a SPARC program must also satisfy the
// word-level round-trip laws on every emitted instruction.
func FuzzAsmRoundTrip(f *testing.F) {
	f.Add("start:\n  retl\n  nop\n")
	f.Add("  add %o0, %o1, %o2\n  ld [%o0+4], %o1\n")
	f.Add("loop: subcc %o1, 1, %o1\n  bne loop\n  nop\n")
	f.Add("  sethi %hi(0x12345000), %o0\n  or %o0, %lo(0x12345678), %o0\n")
	f.Add("  set 42, %g1\n  cmp %g1, 0\n  be done\n  nop\ndone: retl\n  nop\n")
	f.Add("  st %o0, [%sp+64]\n  stb %o1, [%sp+68]\n")
	for _, b := range progs.All() {
		f.Add(b.Source)
	}
	f.Add("sum:\n  mv a2, a0\nloop:\n  lw a5, 0(a2)\n  addi a1, a1, -1\n  bnez a1, loop\n  ret\n")
	f.Add("  sw a1, 4(sp)\n  li t0, 0x12345678\n  lui a0, 0x12\n  jalr zero, 0(ra) ! a comment\n")
	f.Add("main:\n  jal ra, f\n  call f\n  ret\nf:\n  sltiu a0, x10, -1\n  ret\n")
	// Rejected inputs are fine; panics are not.
	f.Fuzz(func(t *testing.T, src string) {
		if prog, err := sparc.Arch.Assemble(src, isa.AsmOptions{}); err == nil {
			if err := CheckProgramRoundTrip(prog); err != nil {
				t.Fatal(err)
			}
		}
		if prog, err := riscv.Arch.Assemble(src, isa.AsmOptions{}); err == nil {
			if err := CheckLowering(prog); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzSolver derives a box-bounded linear system from the fuzz input and
// cross-checks the prover's verdicts against exhaustive enumeration.
func FuzzSolver(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 5, 3})             // one GE atom over x
	f.Add([]byte{1, 0, 0, 2, 1, 1, 3, 4}) // EQ + DIV atoms over x,y
	f.Add([]byte{2, 6, 8, 4, 3, 1, 12, 7, 250, 3, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := SystemFromBytes(data)
		p := solver.New()
		if err := CheckSystem(p, s); err != nil {
			t.Fatal(err)
		}
	})
}
