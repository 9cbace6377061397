package vcgen_test

import (
	"reflect"
	"testing"

	"mcsafe/internal/annotate"
	"mcsafe/internal/cfg"
	"mcsafe/internal/policy"
	"mcsafe/internal/progs"
	"mcsafe/internal/propagate"
	"mcsafe/internal/solver"
	"mcsafe/internal/vcgen"
)

// slowPrograms are the Figure 9 programs whose proofs take seconds;
// they are skipped under -short and under the race detector.
var slowPrograms = map[string]bool{
	"MD5":            true,
	"Stack-smashing": true,
	"HeapSort":       true,
	"HeapSort2":      true,
}

// TestPoolMatchesReference proves each Figure 9 program's conditions
// through the pool at Parallelism 1 and through the sequential reference
// loop, and requires the same verdicts, details, engine stats, and
// prover stats. The single worker reuses one engine across its chunks,
// as the reference does across its conditions; a pool that gave every
// chunk a fresh engine would synthesize invariants again and fail here.
func TestPoolMatchesReference(t *testing.T) {
	for _, b := range progs.All() {
		t.Run(b.Name, func(t *testing.T) {
			if slowPrograms[b.Name] && (testing.Short() || raceEnabled) {
				t.Skip("slow program: skipped with -short and under the race detector")
			}
			prog, spec, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			ini, err := policy.Prepare(spec)
			if err != nil {
				t.Fatal(err)
			}
			g, err := cfg.Build(prog, cfg.Options{TrustedFuncs: spec.TrustedNames()})
			if err != nil {
				t.Fatal(err)
			}
			prop := propagate.Run(g, ini)
			conds := annotate.Run(prop).Conds

			pool := vcgen.New(prop, solver.New(), vcgen.Options{Parallelism: 1})
			got := pool.Prove(conds)
			ref := vcgen.New(prop, solver.New(), vcgen.Options{Parallelism: 1})
			want := vcgen.ProveReference(ref, conds)

			for i := range want {
				if got[i].Cond != want[i].Cond || got[i].Proved != want[i].Proved ||
					got[i].Resource != want[i].Resource || got[i].Detail != want[i].Detail {
					t.Errorf("condition %d (%s): pool (%v, %q), reference (%v, %q)", i, want[i].Cond.Desc,
						got[i].Proved, got[i].Detail, want[i].Proved, want[i].Detail)
				}
			}
			if !reflect.DeepEqual(pool.Stats, ref.Stats) {
				t.Errorf("engine stats: pool %+v, reference %+v", pool.Stats, ref.Stats)
			}
			if !reflect.DeepEqual(pool.P.Stats, ref.P.Stats) {
				t.Errorf("prover stats: pool %+v, reference %+v", pool.P.Stats, ref.P.Stats)
			}
		})
	}
}
