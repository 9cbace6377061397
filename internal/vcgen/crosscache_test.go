package vcgen

import (
	"testing"

	"mcsafe/internal/expr"
	"mcsafe/internal/solver"
)

// TestCrossCacheHitVerified: a crossCache slot whose stored context
// differs from the crossing's (another loop header, or another exit
// formula) under the key that crossing computes, as a fingerprint
// collision would leave it, is a miss. The planted invariant — false,
// which would refute the condition — is never returned: the engine
// synthesizes the crossing again and proves the condition as a fresh
// engine does.
func TestCrossCacheHitVerified(t *testing.T) {
	pl := build(t, loopThenAccessAsm, callSiteSpec, "")
	c := condByDesc(t, pl, "array lower bound")

	// A twin engine runs the same proof to learn the crossing's key and
	// context; a fresh engine mints the same fresh variables.
	twin := New(pl.res, solver.New(), Options{})
	if !twin.provedCached(c.Node, c.AfterNode, c.F) {
		t.Fatal("a fresh engine does not prove the lower bound")
	}
	if len(twin.crossCache) == 0 {
		t.Fatal("the proof crossed no loop")
	}

	for name, perturb := range map[string]func(crossCtx) crossCtx{
		"another loop header": func(c crossCtx) crossCtx {
			return crossCtx{ids: append([]int{c.ids[0] + 1}, c.ids[1:]...), fs: c.fs}
		},
		"another exit continuation": func(c crossCtx) crossCtx {
			return crossCtx{ids: c.ids, fs: append([]expr.Formula{expr.T()}, c.fs[1:]...)}
		},
	} {
		e := New(pl.res, solver.New(), Options{})
		for key, ent := range twin.crossCache {
			e.crossCache[key] = crossEntry{ctx: perturb(ent.ctx), inv: expr.F()}
		}
		if !e.provedCached(c.Node, c.AfterNode, c.F) {
			t.Fatalf("%s: the planted invariant was returned for the crossing", name)
		}
		for key, ent := range e.crossCache {
			if _, isFalse := ent.inv.(expr.FalseF); isFalse {
				t.Errorf("%s: crossing %v still holds the planted false invariant", name, key)
			}
		}
	}
}
