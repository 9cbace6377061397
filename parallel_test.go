package mcsafe

// Determinism of the Phase 5 worker pool: at every Parallelism setting
// the checker must report byte-identical verdicts — the same Safe flag,
// the same violation list in the same order, and the same per-condition
// proved/not-proved verdicts. The pool partitions the conditions
// independently of the worker count and shares only boolean verdict
// caches keyed by complete canonical formulas; a worker's own engine
// carries invariants and fresh-variable numbering between its chunks,
// so identity also rests on prover answers not depending on that
// numbering (see internal/vcgen/pool.go).

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"mcsafe/internal/core"
	"mcsafe/internal/progs"
)

// slowPrograms are the Figure 9 programs whose single check takes
// seconds; they get one repetition (several for the rest) and are
// skipped under -short and under the race detector.
var slowPrograms = map[string]bool{
	"MD5":            true,
	"Stack-smashing": true,
	"HeapSort":       true,
	"HeapSort2":      true,
}

// verdict is the observable outcome a host cares about; everything in
// it must be independent of the Parallelism setting.
type verdict struct {
	Safe         bool
	Violations   []core.Violation
	CondsProved  []bool
	GlobalConds  int
	Instructions int
}

func verdictOf(res *core.Result) verdict {
	v := verdict{
		Safe:         res.Safe,
		Violations:   res.Violations,
		GlobalConds:  res.Stats.GlobalConds,
		Instructions: res.Stats.Instructions,
	}
	for _, cr := range res.Conds {
		v.CondsProved = append(v.CondsProved, cr.Proved)
	}
	return v
}

// TestParallelDeterminism checks every Figure 9 program at Parallelism
// 1 (one worker on the calling goroutine), 4, and GOMAXPROCS, and
// requires identical verdicts. The fast programs run several repetitions
// per setting so a scheduling-dependent divergence would have more
// chances to surface.
func TestParallelDeterminism(t *testing.T) {
	for _, b := range progs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if slowPrograms[b.Name] {
				if testing.Short() {
					t.Skip("slow program: skipped with -short")
				}
				if raceEnabled {
					t.Skip("slow program: skipped under the race detector")
				}
			}
			prog, spec, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			reps := 3
			if slowPrograms[b.Name] {
				reps = 1
			}
			settings := []int{1, 4, runtime.GOMAXPROCS(0)}
			var want verdict
			for rep := 0; rep < reps; rep++ {
				for _, par := range settings {
					res, err := core.Check(prog, spec, core.Options{Parallelism: par})
					if err != nil {
						t.Fatalf("parallelism %d: %v", par, err)
					}
					got := verdictOf(res)
					if got.Safe != b.WantSafe {
						t.Fatalf("parallelism %d: Safe = %v, want %v", par, got.Safe, b.WantSafe)
					}
					if rep == 0 && par == settings[0] {
						want = got
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("parallelism %d (rep %d): verdict diverged\n got: %s\nwant: %s",
							par, rep, describe(got), describe(want))
					}
				}
			}
		})
	}
}

func describe(v verdict) string {
	return fmt.Sprintf("safe=%v violations=%v proved=%v conds=%d insns=%d",
		v.Safe, v.Violations, v.CondsProved, v.GlobalConds, v.Instructions)
}

// TestCheckAllBatch exercises the batch API: the outcomes must match
// item-by-item checks, errors must stay positional, and nil items must
// produce errors rather than panics.
func TestCheckAllBatch(t *testing.T) {
	b := progs.Get("Sum")
	prog, spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	items := []core.CheckItem{
		{Prog: prog, Spec: spec},
		{Prog: nil, Spec: spec},
		{Prog: prog, Spec: spec, Opts: core.Options{Parallelism: 1}},
	}
	for _, par := range []int{0, 1, 2, 8} {
		out := core.CheckAll(items, par)
		if len(out) != len(items) {
			t.Fatalf("parallelism %d: %d outcomes for %d items", par, len(out), len(items))
		}
		for _, i := range []int{0, 2} {
			if out[i].Err != nil {
				t.Fatalf("parallelism %d item %d: %v", par, i, out[i].Err)
			}
			if !out[i].Result.Safe {
				t.Fatalf("parallelism %d item %d: Sum reported unsafe", par, i)
			}
		}
		if out[1].Err == nil {
			t.Fatalf("parallelism %d: nil program produced no error", par)
		}
	}
	if out := core.CheckAll(nil, 4); len(out) != 0 {
		t.Fatalf("empty batch returned %d outcomes", len(out))
	}
}

// TestCheckAllPublic drives Checker.CheckAll with assembled programs,
// matching what cmd/mcsafe's batch mode does.
func TestCheckAllPublic(t *testing.T) {
	spec, err := ParseSpec(`
region V
loc e  int    state init region V summary
val arr int[n] state {e} region V
constraint n >= 1
invoke %o0 = arr
invoke %o1 = n
allow V int ro
allow V int[n] rfo
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble(`
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
`, spec, "")
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{
		{Prog: prog, Spec: spec},
		{Prog: prog, Spec: spec},
		{Prog: nil, Spec: spec},
	}
	out := New().CheckAll(context.Background(), items, 2)
	if len(out) != 3 {
		t.Fatalf("%d outcomes for 3 items", len(out))
	}
	for _, i := range []int{0, 1} {
		if out[i].Err != nil {
			t.Fatalf("item %d: %v", i, out[i].Err)
		}
		if !out[i].Result.Safe {
			t.Fatalf("item %d: expected safe", i)
		}
	}
	if out[2].Err == nil {
		t.Fatal("nil program produced no error")
	}
}
