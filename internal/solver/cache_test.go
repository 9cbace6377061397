package solver

import (
	"reflect"
	"sync"
	"testing"

	"mcsafe/internal/expr"
)

// geConst returns the formula i >= 0 for a test-distinct constant i —
// a family of structurally distinct formulas for exercising the cache.
func geConst(i int) expr.Formula { return expr.Ge(expr.Constant(int64(i))) }

// TestShardedCacheBasics checks the single-goroutine contract: absent
// keys miss, stored verdicts (both true and false) come back verbatim,
// overwrites win, formula mismatches miss, and Len counts across
// shards.
func TestShardedCacheBasics(t *testing.T) {
	c := NewShardedCache()
	yes, no := geConst(1), geConst(2)
	yesKey, noKey := expr.Fingerprint(yes), expr.Fingerprint(no)
	if _, ok := c.Get(yesKey, yes); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Put(yesKey, yes, true)
	c.Put(noKey, no, false)
	if v, ok := c.Get(yesKey, yes); !ok || !v {
		t.Fatalf("Get(yes) = %v, %v", v, ok)
	}
	if v, ok := c.Get(noKey, no); !ok || v {
		t.Fatalf("Get(no) = %v, %v", v, ok)
	}
	// A fingerprint hit with the wrong formula is a miss, not an answer:
	// the verified-hit contract that makes hash collisions harmless.
	if _, ok := c.Get(yesKey, no); ok {
		t.Fatal("hit despite formula mismatch")
	}
	c.Put(yesKey, yes, false)
	if v, _ := c.Get(yesKey, yes); v {
		t.Fatal("overwrite did not win")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// TestShardedCacheConcurrent hammers one cache from parallel goroutines
// with overlapping key sets, so the same shard sees concurrent readers
// and writers. Run under -race this is the data-race check for the
// striped locking; the final sweep checks no verdict was corrupted (the
// verdict of key i is deterministic, so late writers agree with early
// ones).
func TestShardedCacheConcurrent(t *testing.T) {
	t.Parallel()
	c := NewShardedCache()
	const keys = 512
	verdictOf := func(i int) bool { return i%3 == 0 }
	fs := make([]expr.Formula, keys)
	fps := make([]expr.FP, keys)
	for i := range fs {
		fs[i] = geConst(i)
		fps[i] = expr.Fingerprint(fs[i])
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i := 0; i < keys; i++ {
					if v, ok := c.Get(fps[i], fs[i]); ok && v != verdictOf(i) {
						t.Errorf("key %d: read %v, want %v", i, v, verdictOf(i))
						return
					}
					c.Put(fps[i], fs[i], verdictOf(i))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != keys {
		t.Fatalf("Len = %d, want %d", c.Len(), keys)
	}
	for i := 0; i < keys; i++ {
		if v, ok := c.Get(fps[i], fs[i]); !ok || v != verdictOf(i) {
			t.Fatalf("key %d: final verdict %v, %v", i, v, ok)
		}
	}
}

// TestSharedProverConcurrent runs several provers over one shared cache
// from parallel goroutines, all asking the same mix of valid and
// invalid formulas, and checks every prover sees the correct verdicts
// — a cache hit must return exactly what a fresh computation would.
func TestSharedProverConcurrent(t *testing.T) {
	t.Parallel()
	x := expr.V(expr.Var("x"))
	y := expr.V(expr.Var("y"))
	queries := []struct {
		f    expr.Formula
		want bool
	}{
		{expr.GeExpr(x, x), true},
		{expr.Implies(expr.GtExpr(x, y), expr.GeExpr(x, y)), true},
		{expr.Implies(expr.GeExpr(x, y), expr.GtExpr(x, y)), false},
		{expr.Ge(x), false},
		{expr.Ge(expr.Constant(0)), true},
		{expr.Ge(expr.Constant(-1)), false},
	}

	shared := NewShardedCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := NewShared(shared)
			for rep := 0; rep < 20; rep++ {
				for _, q := range queries {
					if got := p.Valid(q.f); got != q.want {
						t.Errorf("Valid(%s) = %v, want %v", q.f, got, q.want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	distinct := map[expr.FP]bool{}
	for _, q := range queries {
		distinct[expr.Fingerprint(q.f)] = true
	}
	if shared.Len() != len(distinct) {
		t.Fatalf("cache holds %d formulas, want %d", shared.Len(), len(distinct))
	}
}

// TestSharedCacheNeverFlipsVerdict is the soundness regression for
// cache sharing: a verdict stored by one prover must be returned
// unchanged by every other prover — in particular a "not proved" (false)
// verdict must never come back as "proved" (true). The test seeds the
// shared cache with deliberately wrong verdicts to observe that hits
// are returned verbatim rather than recomputed or negated.
func TestSharedCacheNeverFlipsVerdict(t *testing.T) {
	x := expr.V(expr.Var("x"))
	tautology := expr.GeExpr(x, x) // provable, so a hit saying false is visible
	invalid := expr.Ge(x)          // not provable, so a hit saying true is visible

	shared := NewShardedCache()
	shared.Put(expr.Fingerprint(tautology), tautology, false)
	shared.Put(expr.Fingerprint(invalid), invalid, true)

	p := NewShared(shared)
	if p.Valid(tautology) {
		t.Fatal("prover recomputed past a cached verdict (hit not honored)")
	}
	if !p.Valid(invalid) {
		t.Fatal("prover recomputed past a cached verdict (hit not honored)")
	}
	if p.Stats.CacheHits != 2 {
		t.Fatalf("CacheHits = %d, want 2", p.Stats.CacheHits)
	}

	// The real-world direction: with an honestly populated cache, a
	// second prover answers every query identically to the first.
	shared = NewShardedCache()
	first := NewShared(shared)
	second := NewShared(shared)
	for _, f := range []expr.Formula{tautology, invalid} {
		if first.Valid(f) != second.Valid(f) {
			t.Fatalf("provers disagree on %s", f)
		}
	}
	if second.Stats.CacheHits != 2 {
		t.Fatalf("second prover CacheHits = %d, want 2", second.Stats.CacheHits)
	}
}

// TestStatsAdd: Add sums every counter. Each field gets a distinct
// value by reflection, so a counter added to Stats but left out of Add
// fails here.
func TestStatsAdd(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("%s = %d after Add, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}
