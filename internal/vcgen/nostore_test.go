package vcgen

import (
	"testing"
	"time"

	"mcsafe/internal/annotate"
	"mcsafe/internal/cfg"
	"mcsafe/internal/expr"
	"mcsafe/internal/solver"
)

// loopThenAccessAsm counts %g3 up to n while four more counters (%g4,
// %g5, %l0 and %l1) count along with it, and then reads the word at
// byte offset %g4+%g5+%l0+%l1-4: the access's requirements reach the
// procedure entry only across the loop, through a crossing invariant
// over four modified variables whose synthesis outlasts the solver's
// first deadline check (every 64th tick).
const loopThenAccessAsm = `
	mov %o0,%o2
	clr %g3
	clr %g4
	clr %g5
	clr %l0
	clr %l1
loop:
	inc %g3
	inc %g4
	inc %g5
	inc %l0
	inc %l1
	cmp %g3,%o1
	bl loop
	nop
	add %g4,%g5,%g2
	add %g2,%l0,%g2
	add %g2,%l1,%g2
	sub %g2,4,%g2
	ld [%o2+%g2],%g1
	retl
	nop
`

// nestedLoopAsm runs an inner loop inside an outer one. The outer
// counter %l0 is non-negative at the inner loop's entry only by the
// outer loop's invariant, so proving that at the inner entry opens an
// entry check on the outer loop.
const nestedLoopAsm = `
	clr %l0
outer:
	clr %l1
inner:
	inc %l1
	cmp %l1,%o1
	bl inner
	nop
	inc %l0
	cmp %l0,%o1
	bl outer
	nop
	retl
	nop
`

func condByDesc(t *testing.T, pl *pipeline, desc string) *annotate.GlobalCond {
	t.Helper()
	for _, c := range pl.ann.Conds {
		if c.Desc == desc {
			return c
		}
	}
	t.Fatalf("no %q condition", desc)
	return nil
}

// TestCrossingUnderTripNotStored: a crossing synthesized while the
// per-condition deadline trips answers the conservative false, and that
// false is not stored. Once the next condition's window clears the
// trip, the same engine proves the query on the merits, as a fresh
// engine does, rather than reusing the false and charging it as a
// refutation.
func TestCrossingUnderTripNotStored(t *testing.T) {
	pl := build(t, loopThenAccessAsm, callSiteSpec, "")
	c := condByDesc(t, pl, "array lower bound")
	if pl.g.InnermostLoop(c.Node) != nil {
		t.Fatal("the access should lie after the loop")
	}
	if !New(pl.res, solver.New(), Options{}).proveAt(c.Node, c.AfterNode, c.F) {
		t.Fatal("a fresh engine does not prove the lower bound")
	}

	e := New(pl.res, solver.New(), Options{})
	e.P.BeginCond(time.Now().Add(-time.Second)) // already expired
	if e.proveAt(c.Node, c.AfterNode, c.F) {
		t.Fatal("a proof under an expired deadline succeeded")
	}
	if stop := e.P.ResourceStop(); stop != solver.StopCondTimeout {
		t.Fatalf("stop = %q, want %q", stop, solver.StopCondTimeout)
	}
	for key, ent := range e.crossings.m {
		if _, isFalse := ent.v.(expr.FalseF); isFalse {
			t.Errorf("crossing %v stored the false reached under the trip", key)
		}
	}
	e.P.BeginCond(time.Time{}) // the next condition's window
	if !e.proveAt(c.Node, c.AfterNode, c.F) {
		t.Fatalf("after a tripped attempt the engine no longer proves the lower bound (stop %q)", e.P.ResourceStop())
	}
}

// innerLoop returns the program's nested loop.
func innerLoop(t *testing.T, pl *pipeline) *cfg.Loop {
	t.Helper()
	for _, proc := range pl.g.Procs {
		for _, l := range proc.Loops {
			if l.Parent != nil {
				return l
			}
		}
	}
	t.Fatal("no nested loop")
	return nil
}

// TestLoopEntryUnderTripNotStored: a loop-entry proof interrupted by the
// solver step budget answers the conservative false, and the memo stores
// nothing from it; the same proof run to completion stores its verdict.
func TestLoopEntryUnderTripNotStored(t *testing.T) {
	pl := build(t, nestedLoopAsm, callSiteSpec, "")
	inner := innerLoop(t, pl)
	w := expr.Ge(expr.V("%l0"))

	free := New(pl.res, solver.New(), Options{})
	if !free.proveAtLoopEntry(inner, w) {
		t.Fatalf("%v not proved at the inner loop's entry", w)
	}
	if v, ok := stored(free.entries, entryCtx(inner, w)); !ok || !v {
		t.Fatalf("the ungoverned proof stored (%v, %v), want (true, true)", v, ok)
	}

	p := solver.New()
	p.Ctl = solver.NewCtl(nil, time.Time{}, 1)
	e := New(pl.res, p, Options{})
	if e.proveAtLoopEntry(inner, w) {
		t.Fatal("a proof out of budget succeeded")
	}
	if stop := p.ResourceStop(); stop != solver.StopBudget {
		t.Fatalf("stop = %q, want %q", stop, solver.StopBudget)
	}
	if n := len(e.entries.m); n != 0 {
		t.Errorf("a tripped loop-entry proof stored %d verdicts", n)
	}
}

// TestLoopEntryAfterCycleCutNotStored: an inner loop's entry proof during
// which the outer loop's entry check is cut (as if an enclosing proof
// had it open) answers false only because of that proof, so the verdict
// is not stored; the same proof without the open check is.
func TestLoopEntryAfterCycleCutNotStored(t *testing.T) {
	pl := build(t, nestedLoopAsm, callSiteSpec, "")
	inner := innerLoop(t, pl)
	outer := inner.Parent
	w := expr.Ge(expr.V("%l0"))

	free := New(pl.res, solver.New(), Options{})
	if !free.proveAtLoopEntry(inner, w) {
		t.Fatalf("%v not proved at the inner loop's entry", w)
	}
	if v, ok := stored(free.entries, entryCtx(inner, w)); !ok || !v {
		t.Fatalf("the uncut proof stored (%v, %v), want (true, true)", v, ok)
	}

	// The outer entry check the inner proof opens is on W(0) of the
	// outer synthesis: the inner entry requirement carried back to the
	// outer header. A twin engine computes it to learn its memo key.
	twin := New(pl.res, solver.New(), Options{})
	w0 := expr.Simplify(twin.passRegion(region{proc: pl.g.ProcOf(outer.Header), loop: outer},
		nil, map[*cfg.Loop]expr.Formula{inner: w}, nil, expr.T()))

	e := New(pl.res, solver.New(), Options{})
	e.entryActive[entryCtx(outer, w0).key()] = true
	if e.proveAtLoopEntry(inner, w) {
		t.Fatal("proof succeeded through a cut entry check")
	}
	if e.cuts == 0 {
		t.Fatalf("the outer entry check on %v was never cut", w0)
	}
	if _, ok := stored(e.entries, entryCtx(inner, w)); ok {
		t.Error("an entry verdict reached after a cycle cut was stored")
	}
}
