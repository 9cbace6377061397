package annotate

import (
	"strings"
	"testing"

	"mcsafe/internal/cfg"
	"mcsafe/internal/expr"
	"mcsafe/internal/isa"
	"mcsafe/internal/policy"
	"mcsafe/internal/propagate"
	"mcsafe/internal/sparc"
)

const fig1Source = `
1:  mov %o0,%o2
2:  clr %o0
3:  cmp %o0,%o1
4:  bge 12
5:  clr %g3
6:  sll %g3,2,%g2
7:  ld [%o2+%g2],%g2
8:  inc %g3
9:  cmp %g3,%o1
10: bl 6
11: add %o0,%g2,%o0
12: retl
13: nop
`

const fig1Spec = `
region V
loc e  int    state init region V summary
val arr int[n] state {e} region V
constraint n >= 1
invoke %o0 = arr
invoke %o1 = n
allow V int ro
allow V int[n] rfo
`

func runAnnotate(t *testing.T, asm, spec, entry string) *Annotations {
	t.Helper()
	s, err := policy.Parse(spec, sparc.Arch)
	if err != nil {
		t.Fatal(err)
	}
	ini, err := policy.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sparc.Arch.Assemble(asm, isa.AsmOptions{DataSyms: s.DataSyms(), Entry: entry})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(prog, cfg.Options{TrustedFuncs: s.TrustedNames()})
	if err != nil {
		t.Fatal(err)
	}
	return Run(propagate.Run(g, ini))
}

func nodeByIndex(a *Annotations, idx int) *cfg.Node {
	for _, n := range a.Res.G.Nodes {
		if n.Index == idx && !n.Replica {
			return n
		}
	}
	return nil
}

// TestFig3SafetyPreconditionsLine7 reproduces Figure 3: the assertions,
// local safety preconditions, and global safety preconditions attached to
// the array load at line 7 of the running example.
func TestFig3SafetyPreconditionsLine7(t *testing.T) {
	a := runAnnotate(t, fig1Source, fig1Spec, "")

	// Local safety preconditions all hold (Phase 4).
	if len(a.LocalViolations) != 0 {
		t.Fatalf("local violations: %+v", a.LocalViolations)
	}
	if a.LocalChecks == 0 {
		t.Fatal("no local checks recorded")
	}

	// Figure 9 reports 4 global safety conditions for Sum.
	if len(a.Conds) != 4 {
		for _, c := range a.Conds {
			t.Logf("cond: %s @%d: %v", c.Desc, c.Node, c.F)
		}
		t.Fatalf("global conditions = %d, want 4", len(a.Conds))
	}

	ld := nodeByIndex(a, 6)
	descs := map[string]*GlobalCond{}
	for _, c := range a.Conds {
		if c.Node != ld.ID {
			t.Errorf("condition %q attached to node %d, not the ld", c.Desc, c.Node)
		}
		descs[c.Desc] = c
	}

	// %o2 != NULL.
	null := descs["null-pointer check"]
	if null == nil {
		t.Fatal("missing null-pointer check")
	}
	if got := null.F.String(); !strings.Contains(got, "%o2") {
		t.Errorf("null check = %q", got)
	}
	// Facts include %o2 >= 1 (arr is non-null) and 4 | %o2 (alignment
	// assertion "%o2 mod 4 = 0" of Figure 3).
	facts := null.Facts.String()
	if !strings.Contains(facts, "%o2 - 1 >= 0") {
		t.Errorf("missing non-null fact in %q", facts)
	}
	if !strings.Contains(facts, "4 | (%o2)") {
		t.Errorf("missing alignment fact in %q", facts)
	}

	// %g2 >= 0 and %g2 < 4n.
	lower := descs["array lower bound"]
	if lower == nil || !strings.Contains(lower.F.String(), "%g2 >= 0") {
		t.Fatalf("lower bound = %v", lower)
	}
	upper := descs["array upper bound"]
	if upper == nil {
		t.Fatal("missing upper bound")
	}
	up := upper.F.String()
	if !strings.Contains(up, "%g2") || !strings.Contains(up, "4*n") {
		t.Errorf("upper bound = %q", up)
	}

	// (%o2 + %g2) mod 4 = 0.
	align := descs["address alignment"]
	if align == nil {
		t.Fatal("missing alignment condition")
	}
	al := align.F.String()
	if !strings.Contains(al, "4 | ") || !strings.Contains(al, "%g2") || !strings.Contains(al, "%o2") {
		t.Errorf("alignment = %q", al)
	}
}

func TestWriteToReadOnlyArrayRejected(t *testing.T) {
	// The policy grants e only "ro": storing into the array must fail
	// the assignable local check (w missing on the location).
	asm := `
	st %o1,[%o0]
	retl
	nop
`
	a := runAnnotate(t, asm, fig1Spec, "")
	found := false
	for _, v := range a.LocalViolations {
		if strings.Contains(v.Desc, "assignable") {
			found = true
		}
	}
	if !found {
		t.Fatalf("store to read-only array not rejected: %+v", a.LocalViolations)
	}
}

func TestUseOfUninitializedValue(t *testing.T) {
	asm := `
	add %o5,1,%o4
	retl
	nop
`
	a := runAnnotate(t, asm, fig1Spec, "")
	found := false
	for _, v := range a.LocalViolations {
		if strings.Contains(v.Desc, "uninitialized") {
			found = true
		}
	}
	if !found {
		t.Fatalf("use of uninitialized %%o5 not rejected: %+v", a.LocalViolations)
	}
}

func TestNotFollowableRejected(t *testing.T) {
	// Dereferencing an integer: followable fails.
	asm := `
	ld [%o1],%o2
	retl
	nop
`
	a := runAnnotate(t, asm, fig1Spec, "")
	found := false
	for _, v := range a.LocalViolations {
		if strings.Contains(v.Desc, "followable") || strings.Contains(v.Desc, "abstract location") {
			found = true
		}
	}
	if !found {
		t.Fatalf("deref of integer not rejected: %+v", a.LocalViolations)
	}
}

func TestReadUninitializedLocation(t *testing.T) {
	asm := `
	ld [%o0],%o1
	retl
	nop
`
	spec := `
region H
struct cell { v int }
loc c cell region H fields(v=uninit)
val cp ptr<cell> state {c} region H
invoke %o0 = cp
allow H cell.v ro
allow H ptr<cell> rfo
`
	a := runAnnotate(t, asm, spec, "")
	found := false
	for _, v := range a.LocalViolations {
		if strings.Contains(v.Desc, "uninitialized location") {
			found = true
		}
	}
	if !found {
		t.Fatalf("read of uninitialized location not rejected: %+v", a.LocalViolations)
	}
}

func TestNullableFieldAccessGetsNullCond(t *testing.T) {
	asm := `
	ld [%o0+0],%o1
	retl
	nop
`
	spec := `
struct thread { tid int ; lwpid int ; next ptr<thread> }
region H
loc t thread region H summary fields(tid=init, lwpid=init, next={t,null})
val tp ptr<thread> state {t,null} region H
invoke %o0 = tp
allow H thread.tid ro
allow H thread.next rfo
allow H ptr<thread> rfo
`
	a := runAnnotate(t, asm, spec, "")
	var null *GlobalCond
	for _, c := range a.Conds {
		if c.Desc == "null-pointer check" {
			null = c
		}
	}
	if null == nil {
		t.Fatal("missing null condition for nullable pointer")
	}
	// The facts must NOT claim non-nullness.
	if strings.Contains(null.Facts.String(), "%o0 - 1 >= 0") {
		t.Errorf("facts wrongly assert non-null: %v", null.Facts)
	}
}

func TestSaveChecks(t *testing.T) {
	ok := runAnnotate(t, "f:\n\tsave %sp,-96,%sp\n\tret\n\trestore", "sym x\ninvoke %o0 = x", "f")
	if len(ok.LocalViolations) != 0 {
		t.Fatalf("valid save rejected: %+v", ok.LocalViolations)
	}
	small := runAnnotate(t, "f:\n\tsave %sp,-32,%sp\n\tret\n\trestore", "sym x\ninvoke %o0 = x", "f")
	if len(small.LocalViolations) == 0 {
		t.Fatal("undersized save not rejected")
	}
	misaligned := runAnnotate(t, "f:\n\tsave %sp,-100,%sp\n\tret\n\trestore", "sym x\ninvoke %o0 = x", "f")
	if len(misaligned.LocalViolations) == 0 {
		t.Fatal("misaligned save not rejected")
	}
}

func TestTrustedCallAnnotations(t *testing.T) {
	asm := `
main:
	call host_read
	mov 4,%o0
	retl
	nop
host_read:
`
	spec := `
trusted host_read args 1
  arg 0 int init
  ret int init perm o
  pre %o0 >= 0
end
`
	a := runAnnotate(t, asm, spec, "main")
	if len(a.LocalViolations) != 0 {
		t.Fatalf("local violations: %+v", a.LocalViolations)
	}
	var pre *GlobalCond
	for _, c := range a.Conds {
		if strings.Contains(c.Desc, "precondition") {
			pre = c
		}
	}
	if pre == nil {
		t.Fatal("missing precondition condition")
	}
	if !pre.AfterNode {
		t.Error("precondition should apply after the delay slot")
	}
	if !strings.Contains(pre.F.String(), "%o0") {
		t.Errorf("pre = %v", pre.F)
	}
}

func TestTrustedCallBadArgRejected(t *testing.T) {
	asm := `
main:
	call host_read
	nop
	retl
	nop
host_read:
`
	spec := `
trusted host_read args 1
  arg 0 int init
end
`
	// %o0 is never initialized before the call.
	a := runAnnotate(t, asm, spec, "main")
	found := false
	for _, v := range a.LocalViolations {
		if strings.Contains(v.Desc, "argument 0") {
			found = true
		}
	}
	if !found {
		t.Fatalf("uninitialized argument not rejected: %+v", a.LocalViolations)
	}
}

func TestFrameArrayStaticBounds(t *testing.T) {
	good := `
f:
	save %sp,-112,%sp
	st %g0,[%fp-24]
	ret
	restore
`
	bad := `
f:
	save %sp,-112,%sp
	st %g0,[%fp-2]
	ret
	restore
`
	spec := `
frame f size 112
  slot fp-24 int[4] name buf state init
  slot fp-8 int name tmp
end
`
	a := runAnnotate(t, good, spec, "f")
	if len(a.LocalViolations) != 0 {
		t.Fatalf("good frame store rejected: %+v", a.LocalViolations)
	}
	b := runAnnotate(t, bad, spec, "f")
	if len(b.LocalViolations) == 0 {
		t.Fatal("store outside any slot not rejected")
	}
}

// TestRenameRegs: a trusted function's precondition speaks about the
// entry window; at a call site two windows deep its registers are the
// depth-2 variables.
func TestRenameRegs(t *testing.T) {
	rm := sparc.Arch.Regs()
	f := expr.GeExpr(expr.V("%o0"), expr.Constant(0))
	g := rm.RenameToDepth(f, 2)
	if !strings.Contains(g.String(), "w2.%o0") {
		t.Errorf("RenameToDepth = %v", g)
	}
	if rm.RenameToDepth(f, 0).String() != f.String() {
		t.Error("depth 0 should be identity")
	}
}
