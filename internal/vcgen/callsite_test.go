package vcgen

import (
	"testing"
	"time"

	"mcsafe/internal/annotate"
	"mcsafe/internal/cfg"
	"mcsafe/internal/expr"
	"mcsafe/internal/solver"
)

// twoSiteAsm calls get from two sites with the same index, and get reads
// the same array element twice: each access's condition back-substitutes
// to the same requirement at get's entry, which must then hold at both
// call sites.
const twoSiteAsm = `
main:
	save %sp,-96,%sp
	mov %i0,%o0
	call get
	clr %o1
	mov %i0,%o0
	call get
	clr %o1
	ret
	restore
get:
	sll %o1,2,%g2
	ld [%o0+%g2],%g3
	ld [%o0+%g2],%g4
	retl
	nop
`

// loopSiteAsm calls get from inside a loop, so proving get's requirement
// at the call site synthesizes a loop invariant whose entry check runs
// through proveAtLoopEntry.
const loopSiteAsm = `
main:
	save %sp,-96,%sp
	clr %l0
loop:
	mov %i0,%o0
	call get
	mov %l0,%o1
	inc %l0
	cmp %l0,%i1
	bl loop
	nop
	ret
	restore
get:
	sll %o1,2,%g2
	ld [%o0+%g2],%g3
	retl
	nop
`

// callSiteSpec passes an int[n] array in %o0 and its length in %o1.
const callSiteSpec = `
region V
loc e  int    state init region V summary
val arr int[n] state {e} region V
constraint n >= 1
invoke %o0 = arr
invoke %o1 = n
allow V int ro
allow V int[n] rfo
`

// getRequirement returns get's procedure and the formula its first
// access's upper bound requires at get's entry, computed on its own
// engine so the engine under test starts fresh.
func getRequirement(t *testing.T, asm string) (*cfg.Proc, expr.Formula) {
	t.Helper()
	pl := build(t, asm, callSiteSpec, "main")
	for _, c := range pl.ann.Conds {
		if c.Desc != "array upper bound" {
			continue
		}
		proc := pl.g.ProcOf(c.Node)
		if proc.Index == pl.g.EntryProc {
			continue
		}
		g := expr.Simplify(pl.e.passRegion(region{proc: proc}, map[int]expr.Formula{c.Node: c.F}, nil, nil, expr.T()))
		if _, isTrue := g.(expr.TrueF); isTrue {
			t.Fatal("get's requirement simplified to true")
		}
		return proc, g
	}
	t.Fatal("no upper-bound condition in get")
	return nil, nil
}

// TestCallSiteRequirementVerdicts: get's two accesses require the same
// formula at both call sites. Every verdict of a check equals the one an
// engine of its own reaches for that condition alone, and the
// requirement discharged at get's entry holds exactly when it holds at
// each site.
func TestCallSiteRequirementVerdicts(t *testing.T) {
	pl := build(t, twoSiteAsm, callSiteSpec, "main")
	if len(pl.g.Sites) != 2 {
		t.Fatalf("call sites = %d, want 2", len(pl.g.Sites))
	}
	out := New(pl.res, solver.New(), Options{Parallelism: 1}).Prove(pl.ann.Conds)
	for i, c := range pl.ann.Conds {
		lone := New(pl.res, solver.New(), Options{})
		want := lone.Prove([]*annotate.GlobalCond{c})[0].Proved
		if out[i].Proved != want {
			t.Errorf("condition %q: proved=%v in the check, %v alone", c.Desc, out[i].Proved, want)
		}
		if !out[i].Proved {
			t.Errorf("condition %q not proved: %v", c.Desc, c.F)
		}
	}

	proc, g := getRequirement(t, twoSiteAsm)
	if !New(pl.res, solver.New(), Options{}).proveAtProcEntry(proc, g) {
		t.Fatalf("requirement %v not proved at the call sites", g)
	}
	for _, site := range pl.g.Sites {
		if !New(pl.res, solver.New(), Options{}).proveAt(site.DelayNode, true, g) {
			t.Errorf("site %d: the proof at the site fails where the one at get's entry succeeded", site.DelayNode)
		}
	}
}

// loopSiteW0 returns the loop around loopSiteAsm's call site and W(0)
// of the site's synthesis for requirement g: g carried back from
// the site to the loop header. It is computed on a twin engine that
// replays the steps up to it, so it has the fresh-variable names an
// engine under test will mint.
func loopSiteW0(t *testing.T, pl *pipeline, g expr.Formula) (*cfg.Loop, expr.Formula) {
	t.Helper()
	if len(pl.g.Sites) != 1 {
		t.Fatalf("call sites = %d, want 1", len(pl.g.Sites))
	}
	site := pl.g.Sites[0]
	l := pl.g.InnermostLoop(site.DelayNode)
	if l == nil {
		t.Fatal("the call site should lie inside main's loop")
	}
	twin := New(pl.res, solver.New(), Options{})
	f := twin.simplify(twin.wlpInsn(site.DelayNode, g))
	w0 := expr.Simplify(twin.passRegion(region{proc: pl.g.ProcOf(site.DelayNode), loop: l},
		map[int]expr.Formula{site.DelayNode: f}, nil, nil, expr.T()))
	return l, w0
}

// TestCallSiteVerdictUnderTripNotStored: a call-site proof interrupted by
// the solver step budget answers a conservative false, and the memo
// keeps only what it had finished on the merits before the trip: every
// entry it holds is one the same proof run to completion stores too,
// with the same result. The budget grows one step at a time until the
// proof completes, so the trip falls at every point of the proof.
func TestCallSiteVerdictUnderTripNotStored(t *testing.T) {
	pl := build(t, loopSiteAsm, callSiteSpec, "main")
	proc, g := getRequirement(t, loopSiteAsm)
	l, w0 := loopSiteW0(t, pl, g)

	e := New(pl.res, solver.New(), Options{})
	if !e.proveAtProcEntry(proc, g) {
		t.Fatal("ungoverned proof failed")
	}
	if v, ok := stored(e.entries, entryCtx(l, w0)); !ok || !v {
		t.Fatalf("the ungoverned proof stored (%v, %v) for W(0), want (true, true)", v, ok)
	}

	for steps := int64(1); ; steps++ {
		p := solver.New()
		p.Ctl = solver.NewCtl(nil, time.Time{}, steps)
		tripped := New(pl.res, p, Options{})
		if tripped.proveAtProcEntry(proc, g) {
			if steps == 1 {
				t.Fatal("the proof needs no solver step")
			}
			break
		}
		if p.ResourceStop() == "" {
			t.Fatalf("budget %d: the proof failed without a trip", steps)
		}
		for _, ent := range tripped.entries.m {
			if v, ok := stored(e.entries, ent.ctx); !ok || v != ent.v {
				t.Errorf("budget %d: entry check %v stored %v; on the merits (%v, %v)", steps, ent.ctx.fs[0], ent.v, v, ok)
			}
		}
		for _, ent := range tripped.crossings.m {
			if inv, ok := stored(e.crossings, ent.ctx); !ok || !expr.Equal(inv, ent.v) {
				t.Errorf("budget %d: a crossing stored %v; on the merits %v", steps, ent.v, inv)
			}
		}
	}
}

// TestCallSiteVerdictAfterCycleCutNotStored: a call-site proof during
// which a loop-entry cycle cut fires answers false only because the
// enclosing proof had that entry check open, so the memo stores nothing
// from it; the same proof without the open check stores the loop-entry
// verdict on the site's W(0).
func TestCallSiteVerdictAfterCycleCutNotStored(t *testing.T) {
	pl := build(t, loopSiteAsm, callSiteSpec, "main")
	proc, g := getRequirement(t, loopSiteAsm)
	// The loop-entry check the call-site proof opens first is on W(0).
	l, w0 := loopSiteW0(t, pl, g)

	free := New(pl.res, solver.New(), Options{})
	if !free.proveAtProcEntry(proc, g) {
		t.Fatal("call-site proof failed with no entry check open")
	}
	if v, ok := stored(free.entries, entryCtx(l, w0)); free.cuts != 0 || !ok || !v {
		t.Fatalf("open-free proof: cuts=%d, W(0) stored (%v, %v), want 0 and (true, true)", free.cuts, v, ok)
	}

	e := New(pl.res, solver.New(), Options{})
	e.entryActive[entryCtx(l, w0).key()] = true // as if an enclosing proof had it open
	if e.proveAtProcEntry(proc, g) {
		t.Fatal("proof succeeded through a cut entry check")
	}
	if e.cuts == 0 {
		t.Fatalf("the entry check on %v was never cut", w0)
	}
	if n := len(e.entries.m) + len(e.crossings.m); n != 0 {
		t.Errorf("a verdict reached after a cycle cut was stored (%d memo entries)", n)
	}
}
