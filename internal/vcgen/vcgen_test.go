package vcgen

import (
	"strings"
	"testing"

	"mcsafe/internal/annotate"
	"mcsafe/internal/cfg"
	"mcsafe/internal/expr"
	"mcsafe/internal/induction"
	"mcsafe/internal/isa"
	"mcsafe/internal/policy"
	"mcsafe/internal/propagate"
	"mcsafe/internal/rtl"
	"mcsafe/internal/solver"
	"mcsafe/internal/sparc"
)

const fig1Asm = `
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

type pipeline struct {
	g   *cfg.Graph
	res *propagate.Result
	ann *annotate.Annotations
	p   *solver.Prover
	e   *Engine
}

func build(t *testing.T, asm, spec, entry string) *pipeline {
	t.Helper()
	s, err := policy.Parse(spec, sparc.Arch)
	if err != nil {
		t.Fatal(err)
	}
	ini, err := policy.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sparc.Arch.Assemble(asm, isa.AsmOptions{
		DataSyms: s.DataSyms(), Entry: entry, Externs: s.TrustedNames()})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(prog, cfg.Options{TrustedFuncs: s.TrustedNames()})
	if err != nil {
		t.Fatal(err)
	}
	res := propagate.Run(g, ini)
	ann := annotate.Run(res)
	p := solver.New()
	return &pipeline{g: g, res: res, ann: ann, p: p, e: New(res, p, Options{})}
}

func nodeByIndex(pl *pipeline, idx int) *cfg.Node {
	for _, n := range pl.g.Nodes {
		if n.Index == idx && !n.Replica {
			return n
		}
	}
	return nil
}

// TestSec522InductionIterationTrace replays Section 5.2.2 on the real
// decoded program: to verify %g2 < 4n at line 7, back-substitution across
// line 6 yields W(0) = %g3 < n at the loop entry; wlp around the loop is
// the implication (%g3+1 < %o1 -> %g3+1 < n); generalization produces
// %o1 <= n; and the resulting invariant implies the bound.
func TestSec522InductionIterationTrace(t *testing.T) {
	pl := build(t, fig1Asm, fig1Spec, "")
	ld := nodeByIndex(pl, 6)

	// The array upper bound condition at line 7.
	var upper *annotate.GlobalCond
	for _, c := range pl.ann.Conds {
		if c.Node == ld.ID && c.Desc == "array upper bound" {
			upper = c
		}
	}
	if upper == nil {
		t.Fatal("missing upper-bound condition at line 7")
	}

	l := pl.g.InnermostLoop(ld.ID)
	if l == nil {
		t.Fatal("line 7 should be inside the loop")
	}
	reg := region{proc: pl.g.ProcOf(ld.ID), loop: l}

	// W(0): back-substituting %g2 < 4n across the sll gives %g3 < n.
	w0 := expr.Simplify(pl.e.passRegion(reg, map[int]expr.Formula{ld.ID: upper.F}, nil, nil, expr.T()))
	if got := w0.String(); !strings.Contains(got, "%g3") || !strings.Contains(got, "n") {
		t.Fatalf("W(0) = %v", w0)
	}
	// W(0) is equivalent to 4*%g3 < 4n (the sll substitution); check it
	// implies %g3 <= n-1.
	want := expr.LeExpr(expr.V("%g3"), expr.V("n").AddConst(-1))
	if !pl.p.Implied(w0, want) {
		t.Errorf("W(0) = %v does not imply %v", w0, want)
	}

	// wlp(loop-body, W(0)): the paper's W(1), an implication guarded by
	// the loop branch %g3+1 < %o1.
	w1 := expr.Simplify(pl.e.passRegion(reg, nil, nil, nil, w0))
	if got := w1.String(); !strings.Contains(got, "%o1") {
		t.Fatalf("W(1) = %v should mention the loop bound %%o1", w1)
	}
	// W(0) does not imply W(1) (the paper's observation that the raw
	// chain does not converge)...
	if pl.p.Implied(w0, w1) {
		t.Error("W(0) => W(1) should NOT hold before generalization")
	}
	// ... but the generalization of W(1) over the loop-modified %g3 is
	// equivalent to %o1 <= n.
	gens := pl.p.Generalize(w1, [][]expr.Var{{"%g3"}})
	if gens == nil {
		t.Fatal("no generalization of W(1)")
	}
	gen := gens[0][0]
	wantGen := expr.LeExpr(expr.V("%o1"), expr.V("n"))
	if !pl.p.Valid(expr.Conj(expr.Implies(gen, wantGen), expr.Implies(wantGen, gen))) {
		t.Errorf("generalization = %v, want equivalent of %%o1 <= n", gen)
	}

	// The combined invariant is inductive and implies the bound.
	inv := expr.Conj(w0, gen)
	wNext := expr.Simplify(pl.e.passRegion(reg, nil, nil, nil, inv))
	if !pl.p.Implied(inv, wNext) {
		t.Error("W(0) ∧ generalized-W(1) should be inductive")
	}
}

// TestProveAllFig1 runs the whole Phase 5 on Figure 1.
func TestProveAllFig1(t *testing.T) {
	pl := build(t, fig1Asm, fig1Spec, "")
	out := pl.e.Prove(pl.ann.Conds)
	for _, cr := range out {
		if !cr.Proved {
			t.Errorf("condition %q not proved: %v", cr.Cond.Desc, cr.Cond.F)
		}
	}
	if pl.e.Stats.Conditions != 4 {
		t.Errorf("conditions = %d", pl.e.Stats.Conditions)
	}
}

// TestBoundsConditionRunsBareFirst: a bounds condition on an index
// whose facts describe the base pointer (no variable in common) keeps
// the bare attempt first.
func TestBoundsConditionRunsBareFirst(t *testing.T) {
	pl := build(t, fig1Asm, fig1Spec, "")
	var upper *annotate.GlobalCond
	for _, c := range pl.ann.Conds {
		if c.Desc == "array upper bound" {
			upper = c
		}
	}
	if upper == nil {
		t.Fatal("missing upper-bound condition")
	}
	if _, noFacts := upper.Facts.(expr.TrueF); noFacts || factsMention(upper) {
		t.Fatalf("facts %v: want facts that share no variable with %v", upper.Facts, upper.F)
	}
	r := pl.e.Prove([]*annotate.GlobalCond{upper})[0]
	if !r.Proved || len(r.Attempts) == 0 || r.Attempts[0].Kind != "bare" {
		t.Errorf("proved %v, attempts %+v: want the bare attempt first", r.Proved, r.Attempts)
	}
}

// TestWlpLinearSubstitutions exercises wlpInsn on representative
// instructions.
func TestWlpLinearSubstitutions(t *testing.T) {
	pl := build(t, fig1Asm, fig1Spec, "")
	// Node 5 is "sll %g3,2,%g2": wlp of (%g2 < 4n) is (4*%g3 < 4n).
	sll := nodeByIndex(pl, 5)
	f := expr.LtExpr(expr.V("%g2"), expr.Term(4, "n"))
	got := expr.Simplify(pl.e.wlpInsn(sll.ID, f))
	want := expr.LtExpr(expr.V("%g3").Scale(4), expr.Term(4, "n"))
	if !pl.p.Valid(expr.Conj(expr.Implies(got, want), expr.Implies(want, got))) {
		t.Errorf("wlp(sll, %v) = %v, want equivalent of %v", f, got, want)
	}

	// Node 7 is "inc %g3" = add %g3,1,%g3: wlp of (%g3 < n) is (%g3+1 < n).
	inc := nodeByIndex(pl, 7)
	f2 := expr.LtExpr(expr.V("%g3"), expr.V("n"))
	got2 := expr.Simplify(pl.e.wlpInsn(inc.ID, f2))
	want2 := expr.LtExpr(expr.V("%g3").AddConst(1), expr.V("n"))
	if !pl.p.Valid(expr.Conj(expr.Implies(got2, want2), expr.Implies(want2, got2))) {
		t.Errorf("wlp(inc, %v) = %v", f2, got2)
	}

	// Node 8 is "cmp %g3,%o1": substitutes the icc ghosts.
	cmp := nodeByIndex(pl, 8)
	f3 := expr.LtExpr(expr.V(policy.ICCA), expr.V(policy.ICCB))
	got3 := expr.Simplify(pl.e.wlpInsn(cmp.ID, f3))
	want3 := expr.LtExpr(expr.V("%g3"), expr.V("%o1"))
	if got3.String() != want3.String() {
		t.Errorf("wlp(cmp, icc) = %v, want %v", got3, want3)
	}
}

// TestWlpLoadSummaryHavocsUniversally: loading from the summary location
// e must quantify the destination universally.
func TestWlpLoadSummaryHavocs(t *testing.T) {
	pl := build(t, fig1Asm, fig1Spec, "")
	ld := nodeByIndex(pl, 6)
	f := expr.GeExpr(expr.V("%g2"), expr.Constant(0))
	got := pl.e.wlpInsn(ld.ID, f)
	if _, ok := got.(expr.Forall); !ok {
		t.Errorf("wlp(ld-summary) = %T %v, want a universal", got, got)
	}
	// And it must not be valid (an arbitrary element can be negative).
	if pl.p.Valid(got) {
		t.Error("havocked load result should not be provably nonnegative")
	}
}

// TestEdgeGuards: the branch guards map conditions to icc constraints,
// and unsigned conditions contribute nothing.
func TestEdgeGuards(t *testing.T) {
	if condFormula(rtl.CondLt) == nil || condFormula(rtl.CondEq) == nil {
		t.Error("signed conditions must produce formulas")
	}
	if condFormula(rtl.CondGtU) != nil || condFormula(rtl.CondGeU) != nil {
		t.Error("unsigned conditions must be conservative (nil)")
	}
	if condFormula(rtl.CondAlways) != nil {
		t.Error("always-taken has no guard")
	}
	env := map[expr.Var]int64{policy.ICCA: 3, policy.ICCB: 5}
	if !condFormula(rtl.CondLt).Eval(env, nil) {
		t.Error("bl guard should hold for 3 < 5")
	}
	if condFormula(rtl.CondGe).Eval(env, nil) {
		t.Error("bge guard should fail for 3 < 5")
	}
}

// TestTrustedCallPostFlows: the postcondition of a trusted call is
// assumed when proving conditions after the call.
func TestTrustedCallPostFlows(t *testing.T) {
	asm := `
main:
	call gettime
	nop
	ld [%o2+%o0],%g1   ! index by the returned value: needs 0 <= ret < 4n...
	retl
	nop
gettime:
`
	spec := `
region V
loc e int state init region V summary
val arr int[n] state {e} region V
constraint n >= 1
invoke %o2 = arr
invoke %o1 = n
trusted gettime args 0
  ret int init perm o
  post %o0 >= 0 and %o0 <= 0
end
`
	pl := build(t, asm, spec, "main")
	out := pl.e.Prove(pl.ann.Conds)
	for _, cr := range out {
		if !cr.Proved {
			t.Errorf("condition %q not proved (post %%o0 = 0 should bound the index): %v",
				cr.Cond.Desc, cr.Cond.F)
		}
	}
}

// TestModifiedVars sanity-checks the modified-variable collection for
// the Figure 1 loop.
func TestModifiedVars(t *testing.T) {
	pl := build(t, fig1Asm, fig1Spec, "")
	ld := nodeByIndex(pl, 6)
	l := pl.g.InnermostLoop(ld.ID)
	vars := pl.e.modifiedVars(l)
	set := map[expr.Var]bool{}
	for _, v := range vars {
		set[v] = true
	}
	for _, want := range []expr.Var{"%g2", "%g3", policy.ICCA, policy.ICCB} {
		if !set[want] {
			t.Errorf("modified vars missing %s: %v", want, vars)
		}
	}
	if set["%o1"] || set["%o2"] {
		t.Errorf("loop does not modify %%o1/%%o2: %v", vars)
	}
}

// TestInductionStatsExported ensures proofs through loops record
// induction activity.
func TestInductionStatsExported(t *testing.T) {
	pl := build(t, fig1Asm, fig1Spec, "")
	pl.e.Prove(pl.ann.Conds)
	if pl.e.Stats.InductionRuns == 0 {
		t.Error("no induction runs recorded")
	}
	if pl.e.Stats.Proved != pl.e.Stats.Conditions {
		t.Errorf("proved %d of %d", pl.e.Stats.Proved, pl.e.Stats.Conditions)
	}
}

// TestRepeatedConditionsSameVerdicts: a condition proved again, after
// the engine has proved it once and memoized what it could, reaches the
// same verdict and detail.
func TestRepeatedConditionsSameVerdicts(t *testing.T) {
	pl := build(t, fig1Asm, fig1Spec, "")
	n := len(pl.ann.Conds)
	conds := append(append([]*annotate.GlobalCond{}, pl.ann.Conds...), pl.ann.Conds...)
	out := pl.e.Prove(conds)
	for i := range n {
		if out[i].Proved != out[n+i].Proved || out[i].Detail != out[n+i].Detail {
			t.Errorf("condition %q: (%v, %q) first, (%v, %q) again", conds[i].Desc,
				out[i].Proved, out[i].Detail, out[n+i].Proved, out[n+i].Detail)
		}
	}
}

// TestAblationOptionsRespected: with generalization and DNF disabled and
// MaxIter 1, the Figure 1 bound cannot be established.
func TestAblationOptionsRespected(t *testing.T) {
	s, _ := policy.Parse(fig1Spec, sparc.Arch)
	ini, _ := policy.Prepare(s)
	prog, _ := sparc.Arch.Assemble(fig1Asm, isa.AsmOptions{})
	g, _ := cfg.Build(prog, cfg.Options{})
	res := propagate.Run(g, ini)
	ann := annotate.Run(res)
	e := New(res, solver.New(), Options{Induction: induction.Options{
		DisableGeneralization: true, DisableDNF: true, MaxIter: 1}})
	out := e.Prove(ann.Conds)
	failed := 0
	for _, cr := range out {
		if !cr.Proved {
			failed++
		}
	}
	if failed == 0 {
		t.Error("crippled induction should fail on the Figure 1 bound")
	}
}

// twoSitesAsm calls f from two loops: f(i, n) counting i up from 0, and
// f(0, i) counting i down from n.
const twoSitesAsm = `
main:
	save %sp,-96,%sp
	mov %i1,%g7
	clr %g1
up:
	cmp %g1,%g7
	bge down0
	nop
	mov %g1,%o1
	call f
	mov %g7,%o2
	ba up
	add %g1,1,%g1
down0:
	mov %g7,%g1
down:
	cmp %g1,%g0
	ble done
	nop
	clr %o1
	call f
	mov %g1,%o2
	ba down
	sub %g1,1,%g1
done:
	ret
	restore
f:
	retl
	nop
`

// TestEntryRefutesOnlyFailingSites: a call site is refuted without
// synthesis only where the full proof fails too, and proveAtProcEntry
// still answers the conjunction of the full proofs over the sites.
func TestEntryRefutesOnlyFailingSites(t *testing.T) {
	pl := build(t, twoSitesAsm, fig1Spec, "main")
	var callee *cfg.Proc
	var sites []*cfg.CallSite
	for _, s := range pl.g.Sites {
		if s.Callee >= 0 {
			callee = pl.g.Procs[s.Callee]
			sites = append(sites, s)
		}
	}
	if len(sites) != 2 {
		t.Fatalf("%d internal call sites, want 2", len(sites))
	}
	// f's arguments, named as at its entry.
	arg := func(name string) expr.LinExpr {
		r, _ := pl.e.rm.Parse(name)
		return expr.V(pl.e.rm.Var(r, pl.g.Nodes[callee.Entry].Depth))
	}
	reqs := []expr.Formula{
		expr.GeExpr(arg("%o1"), expr.Constant(0)),                 // holds at both sites
		expr.LeExpr(arg("%o1"), expr.Constant(0)),                 // holds on entry to the up loop, fails later
		expr.GeExpr(arg("%o2"), expr.Constant(2)),                 // n >= 2 is not known on entry
		expr.LeExpr(arg("%o2").Sub(arg("%o1")), expr.Constant(5)), // n - i <= 5 fails on entry to up
	}
	held, refuted := 0, 0
	for _, g := range reqs {
		all := true
		for _, s := range sites {
			full := New(pl.res, solver.New(), Options{}).proveAt(s.DelayNode, true, g)
			all = all && full
			if _, ref := New(pl.res, solver.New(), Options{}).entryRefutes(s, g); ref {
				refuted++
				if full {
					t.Errorf("site %d refuted %v on entry, but the full proof holds", s.ID, g)
				}
			}
		}
		if all {
			held++
		}
		if got := New(pl.res, solver.New(), Options{}).proveAtProcEntry(callee, g); got != all {
			t.Errorf("requirement %v at f's entry: %v, want %v", g, got, all)
		}
	}
	if held == 0 || refuted == 0 {
		t.Errorf("%d requirements held, %d sites refuted on entry: want some of each", held, refuted)
	}
}

// TestEntryRefutesHandsOverW0: for a requirement at the entry of a
// callee called from two loops, the W(0) entryRefutes computes at each
// site — the one proveAtProcEntry starts that site's synthesis from — is
// the W(0) a fresh twin engine's synthesis at that site computes for
// itself.
func TestEntryRefutesHandsOverW0(t *testing.T) {
	pl := build(t, twoSitesAsm, fig1Spec, "main")
	var callee *cfg.Proc
	var sites []*cfg.CallSite
	for _, s := range pl.g.Sites {
		if s.Callee >= 0 {
			callee = pl.g.Procs[s.Callee]
			sites = append(sites, s)
		}
	}
	if len(sites) != 2 {
		t.Fatalf("%d internal call sites, want 2", len(sites))
	}
	arg := func(name string) expr.LinExpr {
		r, _ := pl.e.rm.Parse(name)
		return expr.V(pl.e.rm.Var(r, pl.g.Nodes[callee.Entry].Depth))
	}
	reqs := []expr.Formula{
		expr.GeExpr(arg("%o1"), expr.Constant(0)),
		expr.LeExpr(arg("%o2").Sub(arg("%o1")), expr.Constant(5)),
		expr.LtExpr(arg("%o1"), arg("%o2")),
	}
	for _, g := range reqs {
		for _, s := range sites {
			if pl.g.InnermostLoop(s.DelayNode) == nil {
				t.Fatalf("site %d lies outside any loop", s.ID)
			}
			handed, _ := New(pl.res, solver.New(), Options{}).entryRefutes(s, g)
			if handed == nil {
				t.Fatalf("site %d: no W(0) handed over for %v", s.ID, g)
			}
			twin := New(pl.res, solver.New(), Options{})
			var own expr.Formula
			twin.wlpCapture = &own
			twin.proveAt(s.DelayNode, true, g)
			if own == nil {
				t.Fatalf("site %d: the twin's synthesis computed no W(0) for %v", s.ID, g)
			}
			if !expr.Equal(handed, expr.Simplify(own)) {
				t.Errorf("site %d, requirement %v: handed over W(0) %v, the site's synthesis computes %v",
					s.ID, g, handed, expr.Simplify(own))
			}
		}
	}
}
