package vcgen_test

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"mcsafe/internal/annotate"
	"mcsafe/internal/cfg"
	"mcsafe/internal/conform"
	"mcsafe/internal/isa"
	"mcsafe/internal/policy"
	"mcsafe/internal/progs"
	"mcsafe/internal/propagate"
	"mcsafe/internal/riscv"
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
			prop, conds := phase5Input(t, prog, spec)

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

// TestPoolMergesStats proves each fast Figure 9 program at Parallelism
// 4 and requires the engine stats the workers merge to equal the
// per-condition results: Conditions counts every condition once and
// Proved the proved ones. Under -race it checks the workers' merge.
func TestPoolMergesStats(t *testing.T) {
	for _, b := range progs.All() {
		if slowPrograms[b.Name] {
			continue
		}
		prog, spec, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		prop, conds := phase5Input(t, prog, spec)
		e := vcgen.New(prop, solver.New(), vcgen.Options{Parallelism: 4})
		proved := 0
		for _, r := range e.Prove(conds) {
			if r.Proved {
				proved++
			}
		}
		if e.Stats.Conditions != len(conds) || e.Stats.Proved != proved {
			t.Errorf("%s: merged Conditions %d, Proved %d; the results hold %d conditions, %d proved",
				b.Name, e.Stats.Conditions, e.Stats.Proved, len(conds), proved)
		}
		if len(conds) > 0 && e.P.Stats.ValidQueries == 0 {
			t.Errorf("%s: no prover queries merged", b.Name)
		}
	}
}

// phase5Input runs Phases 1–4 on a program and returns what Phase 5
// takes: the propagation result and the global conditions.
func phase5Input(t *testing.T, prog *isa.Program, spec *policy.Spec) (*propagate.Result, []*annotate.GlobalCond) {
	t.Helper()
	ini, err := policy.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(prog, cfg.Options{TrustedFuncs: spec.TrustedNames()})
	if err != nil {
		t.Fatal(err)
	}
	prop := propagate.Run(g, ini)
	return prop, annotate.Run(prop).Conds
}

// requireBareFirstVerdicts proves a program's conditions through the
// pool at Parallelism 1 and through the reference loop with the former
// bare-then-with-facts order, and requires the same verdict, resource
// flag and detail for every condition. The check's violation list and
// Safe are built from the local violations, which both share, and these
// three fields, so they are identical too.
func requireBareFirstVerdicts(t *testing.T, prog *isa.Program, spec *policy.Spec) {
	t.Helper()
	prop, conds := phase5Input(t, prog, spec)
	got := vcgen.New(prop, solver.New(), vcgen.Options{Parallelism: 1}).Prove(conds)
	want := vcgen.ProveReferenceBareFirst(vcgen.New(prop, solver.New(), vcgen.Options{Parallelism: 1}), conds)
	for i := range want {
		if got[i].Proved != want[i].Proved || got[i].Resource != want[i].Resource || got[i].Detail != want[i].Detail {
			t.Errorf("condition %d (%s): facts order (%v, %q), bare first (%v, %q)", i, conds[i].Desc,
				got[i].Proved, got[i].Detail, want[i].Proved, want[i].Detail)
		}
	}
}

// TestFactsOrderMatchesBareFirst: ordering a condition's attempts by
// what its facts mention changes no verdict on the Figure 9 programs,
// the RV32I sum loop, and generated programs of every kind.
func TestFactsOrderMatchesBareFirst(t *testing.T) {
	for _, b := range progs.All() {
		t.Run(b.Name, func(t *testing.T) {
			if slowPrograms[b.Name] && (testing.Short() || raceEnabled) {
				t.Skip("slow program: skipped with -short and under the race detector")
			}
			prog, spec, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			requireBareFirstVerdicts(t, prog, spec)
		})
	}
	t.Run("rv32i_sum", func(t *testing.T) {
		asm, err := os.ReadFile("../../testdata/rv32i_sum.s")
		if err != nil {
			t.Fatal(err)
		}
		text, err := os.ReadFile("../../testdata/rv32i_sum.spec")
		if err != nil {
			t.Fatal(err)
		}
		spec, err := policy.Parse(string(text), riscv.Arch)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := riscv.Arch.Assemble(string(asm), isa.AsmOptions{
			DataSyms: spec.DataSyms(), Entry: "sum", Externs: spec.TrustedNames()})
		if err != nil {
			t.Fatal(err)
		}
		requireBareFirstVerdicts(t, prog, spec)
	})
	for _, f := range conform.Corpus(0, 40) {
		t.Run(fmt.Sprintf("gen-%d", f.Seed), func(t *testing.T) {
			if f.Size > 1000 && (testing.Short() || raceEnabled) {
				t.Skip("large fixture: skipped with -short and under the race detector")
			}
			prog, spec, err := f.Build()
			if err != nil {
				t.Fatal(err)
			}
			requireBareFirstVerdicts(t, prog, spec)
		})
	}
}

// TestFactsImplyConditionOutright: Btree's first load has the alignment
// condition 4 | (%g1), and its typestate facts say 4 | (%g1) already.
// The condition is proved by the facts attempt alone: at most one
// solver query and no invariant synthesis.
func TestFactsImplyConditionOutright(t *testing.T) {
	prog, spec, err := progs.Get("Btree").Build()
	if err != nil {
		t.Fatal(err)
	}
	prop, conds := phase5Input(t, prog, spec)
	var c *annotate.GlobalCond
	for _, x := range conds {
		if x.Code == annotate.CodeAlign && x.F.String() == "4 | (%g1)" {
			c = x
			break
		}
	}
	if c == nil {
		t.Fatalf("Btree has no %s alignment condition", "4 | (%g1)")
	}
	e := vcgen.New(prop, solver.New(), vcgen.Options{Parallelism: 1})
	r := e.Prove([]*annotate.GlobalCond{c})[0]
	if !r.Proved {
		t.Fatalf("%s not proved; facts %s", c.F, c.Facts)
	}
	if q := e.P.Stats.ValidQueries; q > 1 {
		t.Errorf("%d solver queries, want at most 1", q)
	}
	if n := e.Stats.InductionRuns; n != 0 {
		t.Errorf("%d induction runs, want 0", n)
	}
	if len(r.Attempts) != 1 || r.Attempts[0].Kind != "facts" {
		t.Errorf("attempts %+v, want one facts attempt", r.Attempts)
	}
}
