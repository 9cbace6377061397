package vcgen

import (
	"sync"
	"testing"

	"mcsafe/internal/expr"
	"mcsafe/internal/solver"
)

// stored returns m's result for ctx, if m holds one filed under ctx's
// key for exactly that context.
func stored[V any](m *memo[V], ctx memoCtx) (V, bool) {
	ent, ok := m.m[ctx.key()]
	if !ok || !ent.ctx.equal(ctx) {
		var zero V
		return zero, false
	}
	return ent.v, true
}

// TestMemoHitVerified: a memo slot filed under the key a lookup computes
// but holding another context (another loop header, or another first
// formula), as a fingerprint collision would leave it, is a miss, for
// both uses of the memo. The planted result — a false invariant for a
// crossing, a false verdict for a loop entry, either of which would
// refute the query — is never returned: the engine proves the query
// again, as a fresh engine does, and the memo then holds the result on
// the merits.
func TestMemoHitVerified(t *testing.T) {
	perturbations := []struct {
		name    string
		perturb func(memoCtx) memoCtx
	}{
		{"another loop header", func(c memoCtx) memoCtx {
			return memoCtx{ids: append([]int{c.ids[0] + 1}, c.ids[1:]...), fs: c.fs}
		}},
		{"another formula", func(c memoCtx) memoCtx {
			return memoCtx{ids: c.ids, fs: append([]expr.Formula{expr.T()}, c.fs[1:]...)}
		}},
	}

	cross := build(t, loopThenAccessAsm, callSiteSpec, "")
	c := condByDesc(t, cross, "array lower bound")
	// A twin engine runs the same proof to learn the crossings' keys and
	// contexts; a fresh engine mints the same fresh variables.
	twin := New(cross.res, solver.New(), Options{})
	if !twin.proveAt(c.Node, c.AfterNode, c.F) {
		t.Fatal("a fresh engine does not prove the lower bound")
	}
	if len(twin.crossings.m) == 0 {
		t.Fatal("the proof crossed no loop")
	}

	nested := build(t, nestedLoopAsm, callSiteSpec, "")
	inner := innerLoop(t, nested)
	w := expr.Ge(expr.V("%l0"))
	entry := entryCtx(inner, w)

	for _, p := range perturbations {
		t.Run("crossing/"+p.name, func(t *testing.T) {
			e := New(cross.res, solver.New(), Options{})
			for key, ent := range twin.crossings.m {
				e.crossings.m[key] = memoEntry[expr.Formula]{ctx: p.perturb(ent.ctx), v: expr.F()}
			}
			if !e.proveAt(c.Node, c.AfterNode, c.F) {
				t.Fatal("the planted invariant was returned for the crossing")
			}
			for key, ent := range e.crossings.m {
				if _, isFalse := ent.v.(expr.FalseF); isFalse {
					t.Errorf("crossing %v still holds the planted false invariant", key)
				}
			}
		})
		t.Run("loop entry/"+p.name, func(t *testing.T) {
			e := New(nested.res, solver.New(), Options{})
			e.entries.m[entry.key()] = memoEntry[bool]{ctx: p.perturb(entry), v: false}
			if !e.proveAtLoopEntry(inner, w) {
				t.Fatal("the planted verdict was returned for the loop entry")
			}
			if v, ok := stored(e.entries, entry); !ok || !v {
				t.Errorf("the memo holds (%v, %v) for the entry, want (true, true)", v, ok)
			}
		})
	}
}

// TestMemoSharedConcurrently: engines on concurrent goroutines share one
// loop-entry memo, as a pool's workers do, and each answers every entry
// check as a lone engine does. Under -race this checks the memo's
// locking.
func TestMemoSharedConcurrently(t *testing.T) {
	pl := build(t, nestedLoopAsm, callSiteSpec, "")
	inner := innerLoop(t, pl)
	ws := []expr.Formula{
		expr.Ge(expr.V("%l0")),
		expr.Ge(expr.V("%l1")),
		expr.GeExpr(expr.V("%o1"), expr.Constant(1)),
		expr.LtExpr(expr.V("%l0"), expr.Constant(0)),
		expr.LtExpr(expr.V("%l0"), expr.V("%o1")),
	}
	want := make([]bool, len(ws))
	for i, w := range ws {
		want[i] = New(pl.res, solver.New(), Options{}).proveAtLoopEntry(inner, w)
	}
	shared := newMemo[bool]()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := New(pl.res, solver.New(), Options{})
			e.entries = shared
			for i, w := range ws {
				if got := e.proveAtLoopEntry(inner, w); got != want[i] {
					t.Errorf("entry check %v: %v with a shared memo, %v alone", w, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	if len(shared.m) == 0 {
		t.Error("the shared memo stored nothing")
	}
}
