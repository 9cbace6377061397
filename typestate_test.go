package mcsafe

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"mcsafe/internal/cfg"
	"mcsafe/internal/policy"
	"mcsafe/internal/propagate"
)

// typestateDigest hashes Phase 2's whole output for one program: the
// step count and issues, and every node's In and Out rendering, usage
// kind and memory-access resolution.
func typestateDigest(t *testing.T, p *Program, spec *Spec) string {
	t.Helper()
	ini, err := policy.Prepare(spec.spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(p.prog, cfg.Options{TrustedFuncs: spec.spec.TrustedNames()})
	if err != nil {
		t.Fatal(err)
	}
	r := propagate.Run(g, ini)
	h := sha256.New()
	fmt.Fprintf(h, "steps %d\n", r.Steps)
	for _, is := range r.Issues {
		fmt.Fprintf(h, "issue %d %s %s\n", is.Node, is.Code, is.Msg)
	}
	for id := range g.Nodes {
		fmt.Fprintf(h, "%d in %s\n%d out %s\n%d kind %v\n", id, r.In[id], id, r.Out[id], id, r.Kind[id])
		if m := r.Mem[id]; m != nil {
			fmt.Fprintf(h, "%d mem %v %v %v %v %q %v %q %d %d %v %v\n", id,
				m.Targets, m.Array, m.ElemType, m.Bound, m.BaseVar, m.MayNull,
				m.IndexReg, m.IndexImm, m.MinAlign, m.Frame, m.BaseInterior)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTypestateGolden pins Phase 2's output on the front-end golden's
// cases (the 13 Figure 9 programs, 36 generated fixtures and the RV32I
// programs): every case must digest exactly as recorded in
// testdata/typestate.golden. A mismatch prints the line the tree now
// produces; a deliberate change to typestate propagation replaces the
// golden line by hand and says why.
func TestTypestateGolden(t *testing.T) {
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
		got = append(got, c.name+" "+typestateDigest(t, p, spec))
	}
	raw, err := os.ReadFile("testdata/typestate.golden")
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
