package difftest

import (
	"math/rand"
	"testing"

	"mcsafe/internal/isa"
	"mcsafe/internal/policy"
	"mcsafe/internal/progs"
	"mcsafe/internal/sparc"
)

// TestDiffOracleDetects proves the dynamic classifier is not vacuously
// permissive: three hand-written violations of the Sum policy — an
// out-of-bounds read, a store to a read-only region, and a misaligned
// word load — must each produce the expected trap kind. Without this
// test, a classifier that never fires would pass every soundness sweep.
func TestDiffOracleDetects(t *testing.T) {
	spec, err := policy.Parse(progs.Sum().Spec, sparc.Arch)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		src  string
		kind string
	}{
		{"oob-read", `
  sll %o1,2,%g2
  ld [%o0+%g2],%g1   ! arr[n]: one past the end
  retl
  nop
`, "oob"},
		{"readonly-write", `
  st %g0,[%o0]       ! policy grants V int ro only
  retl
  nop
`, "perm"},
		{"misaligned-load", `
  ld [%o0+2],%g1     ! word load at alignment 2
  retl
  nop
`, "misalign"},
	}
	for _, tc := range cases {
		prog, err := sparc.Arch.Assemble(tc.src, isa.AsmOptions{
			DataSyms: spec.DataSyms(),
			Externs:  spec.TrustedNames(),
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rng := rand.New(rand.NewSource(5))
		world, err := BuildWorld(spec, rng)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		trap, reason := world.Exec(prog, 1000)
		if trap == nil {
			t.Errorf("%s: no trap (run ended: %s)", tc.name, reason)
			continue
		}
		if trap.Kind != tc.kind {
			t.Errorf("%s: trap kind %q, want %q (%s)", tc.name, trap.Kind, tc.kind, trap)
		}
	}
}
