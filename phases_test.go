package mcsafe

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"mcsafe/internal/annotate"
	"mcsafe/internal/cfg"
	"mcsafe/internal/policy"
	"mcsafe/internal/propagate"
	"mcsafe/internal/solver"
	"mcsafe/internal/vcgen"
)

// phasesDigest hashes what Phases 3–5 make of one program: every
// global condition annotate emits, its local violations and check
// count, then Phase 5's verdict paths at Parallelism 1 and the engine's
// and prover's effort counters.
func phasesDigest(t *testing.T, p *Program, spec *Spec) string {
	t.Helper()
	ini, err := policy.Prepare(spec.spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(p.prog, cfg.Options{TrustedFuncs: spec.spec.TrustedNames()})
	if err != nil {
		t.Fatal(err)
	}
	ann := annotate.Run(propagate.Run(g, ini))
	h := sha256.New()
	for _, c := range ann.Conds {
		fmt.Fprintf(h, "cond %d %d %s %q %s %s %v\n", c.ID, c.Node, c.Code, c.Desc, c.F, c.Facts, c.AfterNode)
	}
	for _, v := range ann.LocalViolations {
		fmt.Fprintf(h, "local %d %s %q\n", v.Node, v.Code, v.Desc)
	}
	fmt.Fprintf(h, "checks %d\n", ann.LocalChecks)
	prover := solver.New()
	eng := vcgen.New(ann.Res, prover, vcgen.Options{Parallelism: 1})
	for _, r := range eng.Prove(ann.Conds) {
		fmt.Fprintf(h, "verdict %d %v %v %q\n", r.Cond.ID, r.Proved, r.Resource, r.Detail)
		for _, at := range r.Attempts {
			fmt.Fprintf(h, "attempt %s %q %q %v\n", at.Kind, at.Formula, at.WLP, at.Proved)
		}
	}
	fmt.Fprintf(h, "engine %+v\nprover %+v\n", eng.Stats, prover.Stats)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPhasesGolden pins annotation and global verification on the
// front-end golden's cases (the 13 Figure 9 programs, 36 generated
// fixtures and the RV32I programs): every case must digest exactly as
// recorded in testdata/phases.golden. A mismatch prints the line the
// tree now produces; a deliberate change to Phases 3–5 replaces the
// golden line by hand and says why.
func TestPhasesGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("slow programs: skipped under the race detector")
	}
	var got []string
	for _, c := range frontEndCases(t) {
		spec, err := ParseSpecArch(c.spec, c.arch)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		p, err := AssembleArch(c.arch, c.asm, spec, c.entry)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, c.name+" "+phasesDigest(t, p, spec))
	}
	raw, err := os.ReadFile("testdata/phases.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Errorf("golden has %d lines, the tree produces %d", len(want), len(got))
	}
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			t.Errorf("line %d:\n want %s\n  got %s", i+1, want[i], got[i])
		}
	}
}
