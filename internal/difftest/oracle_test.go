package difftest

import (
	"math/rand"
	"os"
	"testing"

	"mcsafe/internal/isa"
	"mcsafe/internal/policy"
	"mcsafe/internal/progs"
)

// TestDiffOracleDetects proves the dynamic classifier is not vacuously
// permissive: three hand-written violations of the Sum policy — an
// out-of-bounds read, a store to a read-only region, and a misaligned
// word load — must each produce the expected trap kind, on SPARC and
// on RV32I (under the same policy restated for %a0/%a1). Without this
// test, a classifier that never fires would pass every soundness sweep.
func TestDiffOracleDetects(t *testing.T) {
	rvSpec, err := os.ReadFile("../../testdata/rv32i_sum.spec")
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]string{"sparc": progs.Sum().Spec, "rv32i": string(rvSpec)}
	cases := []struct {
		arch, name string
		src        string
		kind       string
	}{
		{"sparc", "oob-read", `
  sll %o1,2,%g2
  ld [%o0+%g2],%g1   ! arr[n]: one past the end
  retl
  nop
`, "oob"},
		{"sparc", "readonly-write", `
  st %g0,[%o0]       ! policy grants V int ro only
  retl
  nop
`, "perm"},
		{"sparc", "misaligned-load", `
  ld [%o0+2],%g1     ! word load at alignment 2
  retl
  nop
`, "misalign"},
		{"rv32i", "oob-read", `
  slli a2, a1, 2
  add a2, a0, a2
  lw a3, 0(a2)
  ret
`, "oob"},
		{"rv32i", "readonly-write", `
  sw zero, 0(a0)
  ret
`, "perm"},
		{"rv32i", "misaligned-load", `
  lw a3, 2(a0)
  ret
`, "misalign"},
	}
	for _, tc := range cases {
		name := tc.arch + "/" + tc.name
		arch, err := isa.Get(tc.arch)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := policy.Parse(specs[tc.arch], arch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, err := arch.Assemble(tc.src, isa.AsmOptions{
			DataSyms: spec.DataSyms(),
			Externs:  spec.TrustedNames(),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rng := rand.New(rand.NewSource(5))
		world, err := BuildWorld(spec, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		trap, reason := world.Exec(prog, 1000)
		if trap == nil {
			t.Errorf("%s: no trap (run ended: %s)", name, reason)
			continue
		}
		if trap.Kind != tc.kind {
			t.Errorf("%s: trap kind %q, want %q (%s)", name, trap.Kind, tc.kind, trap)
		}
	}
}

// TestWorldByteOrder: a world writes its memory image in its
// architecture's byte order, the one the machine reads in. Each program
// loads arr[0] (BuildWorld draws 0..16), shifts it right by 8 and reads
// the byte that far past arr: read in the wrong order, a nonzero element
// puts that byte at least 64 KiB out of bounds.
func TestWorldByteOrder(t *testing.T) {
	rvSpec, err := os.ReadFile("../../testdata/rv32i_sum.spec")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ arch, spec, src string }{
		{"sparc", progs.Sum().Spec, "ld [%o0], %o5\nsrl %o5, 8, %o5\nldub [%o0+%o5], %o4\nretl\nnop\n"},
		{"rv32i", string(rvSpec), "lw a5, 0(a0)\nsrli a5, a5, 8\nadd a5, a0, a5\nlbu a6, 0(a5)\nret\n"},
	}
	for _, c := range cases {
		arch, err := isa.Get(c.arch)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := policy.Parse(c.spec, arch)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := arch.Assemble(c.src, isa.AsmOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for wi := 0; wi < 8; wi++ {
			world, err := BuildWorld(spec, rng)
			if err != nil {
				t.Fatal(err)
			}
			if trap, reason := world.Exec(prog, 100); trap != nil || reason != "exit" {
				t.Errorf("%s world %d: trap %v, reason %q", c.arch, wi, trap, reason)
			}
		}
	}
}
