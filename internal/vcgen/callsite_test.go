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

// TestCallSiteRequirementProvedOnce: get's two accesses require the same
// formula at both call sites. The first access proves it at each site;
// the second finds both verdicts in the query cache, and every verdict
// equals the one proved with no cache to consult.
func TestCallSiteRequirementProvedOnce(t *testing.T) {
	pl := build(t, twoSiteAsm, callSiteSpec, "main")
	if len(pl.g.Sites) != 2 {
		t.Fatalf("call sites = %d, want 2", len(pl.g.Sites))
	}
	// Sequentially, so the second access is proved after the first.
	seq := New(pl.res, solver.New(), Options{Parallelism: 1})
	out := seq.Prove(pl.ann.Conds)
	if seq.Stats.CacheHits == 0 {
		t.Fatal("the repeated call-site requirement never hit the query cache")
	}
	// Bypassing the cache: each condition proved by an engine of its own.
	for i, c := range pl.ann.Conds {
		lone := New(pl.res, solver.New(), Options{})
		want := lone.Prove([]*annotate.GlobalCond{c})[0].Proved
		if out[i].Proved != want {
			t.Errorf("condition %q: proved=%v with call-site reuse, %v without", c.Desc, out[i].Proved, want)
		}
		if !out[i].Proved {
			t.Errorf("condition %q not proved: %v", c.Desc, c.F)
		}
	}

	// White-box: the second discharge of one requirement at get's entry
	// asks the solver nothing and answers both sites from the cache.
	proc, g := getRequirement(t, twoSiteAsm)
	e := New(pl.res, solver.New(), Options{})
	if !e.proveAtProcEntry(proc, g) {
		t.Fatalf("requirement %v not proved at the call sites", g)
	}
	if e.Stats.CacheHits != 0 {
		t.Fatalf("first discharge hit the cache %d times", e.Stats.CacheHits)
	}
	queries := e.P.Stats.ValidQueries
	if !e.proveAtProcEntry(proc, g) {
		t.Fatal("second discharge flipped the verdict")
	}
	if e.Stats.CacheHits != len(pl.g.Sites) {
		t.Errorf("second discharge: %d cache hits, want one per site (%d)", e.Stats.CacheHits, len(pl.g.Sites))
	}
	if q := e.P.Stats.ValidQueries - queries; q != 0 {
		t.Errorf("second discharge posed %d solver queries, want 0", q)
	}
	// The same requirement proved site by site with no cache at all.
	bare := New(pl.res, solver.New(), Options{})
	for _, site := range pl.g.Sites {
		if !bare.proveAt(site.DelayNode, true, g) {
			t.Errorf("site %d: uncached proof fails where the cached one succeeded", site.DelayNode)
		}
	}
}

// TestCallSiteVerdictUnderTripNotStored: a call-site proof interrupted by
// the solver step budget answers a conservative false, and that verdict
// is not stored — while the same proof run to completion is.
func TestCallSiteVerdictUnderTripNotStored(t *testing.T) {
	pl := build(t, twoSiteAsm, callSiteSpec, "main")
	proc, g := getRequirement(t, twoSiteAsm)

	e := New(pl.res, solver.New(), Options{})
	if !e.proveAtProcEntry(proc, g) {
		t.Fatal("ungoverned proof failed")
	}
	if n := e.cache.Len(); n != len(pl.g.Sites) {
		t.Fatalf("ungoverned proof stored %d verdicts, want %d", n, len(pl.g.Sites))
	}

	p := solver.New()
	p.Ctl = solver.NewCtl(nil, time.Time{}, 1)
	tripped := New(pl.res, p, Options{})
	if tripped.proveAtProcEntry(proc, g) {
		t.Fatal("a proof out of budget succeeded")
	}
	if p.ResourceStop() == "" {
		t.Fatal("the step budget never tripped")
	}
	if n := tripped.cache.Len(); n != 0 {
		t.Errorf("a tripped proof stored %d call-site verdicts", n)
	}
}

// TestCallSiteVerdictAfterCycleCutNotStored: a call-site proof during
// which a loop-entry cycle cut fires answers false only because the
// enclosing proof had that entry check open, so the verdict is not
// stored; the same proof without the open check is stored.
func TestCallSiteVerdictAfterCycleCutNotStored(t *testing.T) {
	pl := build(t, loopSiteAsm, callSiteSpec, "main")
	proc, g := getRequirement(t, loopSiteAsm)
	if len(pl.g.Sites) != 1 {
		t.Fatalf("call sites = %d, want 1", len(pl.g.Sites))
	}
	site := pl.g.Sites[0]
	l := pl.g.InnermostLoop(site.DelayNode)
	if l == nil {
		t.Fatal("the call site should lie inside main's loop")
	}

	// The loop-entry check the call-site proof opens first is on W(0),
	// the requirement carried back to the loop header. A twin engine
	// replays the steps up to it (the same fresh-variable names) to
	// learn its cache key.
	twin := New(pl.res, solver.New(), Options{})
	f := twin.simplify(twin.wlpInsn(site.DelayNode, g))
	w0 := expr.Simplify(twin.passRegion(region{proc: pl.g.ProcOf(site.DelayNode), loop: l},
		map[int]expr.Formula{site.DelayNode: f}, nil, nil, expr.T()))
	key := expr.Fingerprint(w0).Mixed(uint64(l.Header))

	free := New(pl.res, solver.New(), Options{})
	if !free.proveAtProcEntry(proc, g) {
		t.Fatal("call-site proof failed with no entry check open")
	}
	if free.cuts != 0 || free.cache.Len() != 1 {
		t.Fatalf("open-free proof: cuts=%d stored=%d, want 0 and 1", free.cuts, free.cache.Len())
	}

	e := New(pl.res, solver.New(), Options{})
	e.entryActive[key] = true // as if an enclosing proof had it open
	if e.proveAtProcEntry(proc, g) {
		t.Fatal("proof succeeded through a cut entry check")
	}
	if e.cuts == 0 {
		t.Fatalf("the entry check on %v was never cut", w0)
	}
	if n := e.cache.Len(); n != 0 {
		t.Errorf("a verdict reached after a cycle cut was stored (%d entries)", n)
	}
}
