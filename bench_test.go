package mcsafe

// The benchmark harness regenerating the paper's evaluation (Figure 9)
// and the ablations its Section 5.2.3/6 discussion motivates. One
// testing.B benchmark per Figure 9 column runs the full five-phase
// checker on that program; the reported custom metrics break the time
// into the paper's three phases. cmd/mcbench prints the same data as a
// side-by-side table, and EXPERIMENTS.md records a reference run.

import (
	"testing"

	"mcsafe/internal/annotate"
	"mcsafe/internal/cfg"
	"mcsafe/internal/core"
	"mcsafe/internal/induction"
	"mcsafe/internal/policy"
	"mcsafe/internal/progs"
	"mcsafe/internal/propagate"
	"mcsafe/internal/solver"
	"mcsafe/internal/vcgen"
)

// benchProgram checks one Figure 9 program repeatedly and reports
// per-phase times as custom metrics (ns per phase).
func benchProgram(b *testing.B, name string, opts core.Options) {
	bench := progs.Get(name)
	if bench == nil {
		b.Fatalf("unknown program %q", name)
	}
	prog, spec, err := bench.Build()
	if err != nil {
		b.Fatal(err)
	}
	var ts, al, gl int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Check(prog, spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Safe != bench.WantSafe {
			b.Fatalf("%s: verdict %v, want %v", name, res.Safe, bench.WantSafe)
		}
		ts += res.Times.Typestate.Nanoseconds()
		al += res.Times.AnnotLocal.Nanoseconds()
		gl += res.Times.Global.Nanoseconds()
	}
	b.ReportMetric(float64(ts)/float64(b.N), "ns/typestate")
	b.ReportMetric(float64(al)/float64(b.N), "ns/annot+local")
	b.ReportMetric(float64(gl)/float64(b.N), "ns/global")
}

// BenchmarkFig9 regenerates the Figure 9 timing rows, one sub-benchmark
// per evaluation program, in the paper's column order.
func BenchmarkFig9(b *testing.B) {
	for _, bench := range progs.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			benchProgram(b, bench.Name, core.Options{})
		})
	}
}

// BenchmarkAblationNoGeneralization switches off the generalization
// enhancement of the induction-iteration method (Section 5.2.1). The
// paper's own example (Section 5.2.2) does not converge without it; the
// checker then rejects Sum, so this ablation measures the cost of the
// fruitless search on the programs that need generalization and the
// unchanged cost on those that do not.
func BenchmarkAblationNoGeneralization(b *testing.B) {
	for _, name := range []string{"Sum", "BubbleSort", "Btree"} {
		name := name
		b.Run(name, func(b *testing.B) {
			bench := progs.Get(name)
			prog, spec, err := bench.Build()
			if err != nil {
				b.Fatal(err)
			}
			opts := core.Options{Induction: induction.Options{DisableGeneralization: true}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Check(prog, spec, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNoDNF switches off the DNF-disjunct candidate
// enhancement (Section 5.2.1's third strategy).
func BenchmarkAblationNoDNF(b *testing.B) {
	for _, name := range []string{"Sum", "BubbleSort", "HeapSort"} {
		name := name
		b.Run(name, func(b *testing.B) {
			bench := progs.Get(name)
			prog, spec, err := bench.Build()
			if err != nil {
				b.Fatal(err)
			}
			opts := core.Options{Induction: induction.Options{DisableDNF: true}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Check(prog, spec, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMaxIter varies the induction-iteration bound. The
// paper observes three iterations suffice in practice; this measures the
// cost/benefit of 1, 2, 3 on the loop-heaviest safe program.
func BenchmarkAblationMaxIter(b *testing.B) {
	for _, n := range []int{1, 2, 3} {
		n := n
		b.Run(map[int]string{1: "1", 2: "2", 3: "3"}[n], func(b *testing.B) {
			bench := progs.Get("BubbleSort")
			prog, spec, err := bench.Build()
			if err != nil {
				b.Fatal(err)
			}
			opts := core.Options{Induction: induction.Options{MaxIter: n}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Check(prog, spec, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPhases isolates each phase of the checker on a loop-heavy
// program, mirroring the paper's observation that checking time splits
// between typestate propagation and global verification, and compares
// global verification on one worker against GOMAXPROCS workers.
// BubbleSort keeps single iterations fast enough to get stable numbers;
// BenchmarkFig9 covers the larger programs end to end.
func BenchmarkPhases(b *testing.B) {
	bench := progs.Get("BubbleSort")
	prog, spec, err := bench.Build()
	if err != nil {
		b.Fatal(err)
	}

	b.Run("prepare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := policy.Prepare(spec); err != nil {
				b.Fatal(err)
			}
			if _, err := cfg.Build(prog, cfg.Options{TrustedFuncs: spec.TrustedNames()}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The later phases consume (but do not mutate) the earlier phases'
	// outputs, so those are built once outside the timed loops.
	ini, err := policy.Prepare(spec)
	if err != nil {
		b.Fatal(err)
	}
	g, err := cfg.Build(prog, cfg.Options{TrustedFuncs: spec.TrustedNames()})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("typestate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			propagate.Run(g, ini)
		}
	})

	prop := propagate.Run(g, ini)
	b.Run("annot+local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			annotate.Run(prop)
		}
	})

	ann := annotate.Run(prop)
	globalBench := func(par int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Fresh prover and engine per iteration: global
				// verification is measured cold, not from warm caches.
				eng := vcgen.New(prop, solver.New(), vcgen.Options{Parallelism: par})
				eng.Prove(ann.Conds)
			}
		}
	}
	b.Run("global/sequential", globalBench(1))
	b.Run("global/parallel", globalBench(0))

	fullBench := func(par int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Check(prog, spec, core.Options{Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
				if res.Safe != bench.WantSafe {
					b.Fatalf("verdict %v, want %v", res.Safe, bench.WantSafe)
				}
			}
		}
	}
	b.Run("full/sequential", fullBench(1))
	b.Run("full/parallel", fullBench(0))
}
