package propagate_test

import (
	"runtime"
	"sync"
	"testing"

	"mcsafe/internal/cfg"
	"mcsafe/internal/isa"
	"mcsafe/internal/policy"
	"mcsafe/internal/progs"
	"mcsafe/internal/propagate"
)

// phase1 builds the inputs of Phase 2 for one Figure 9 program.
func phase1(t *testing.T, name string) (*cfg.Graph, *policy.Initial, *isa.Program) {
	t.Helper()
	prog, spec, err := progs.Get(name).Build()
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
	return g, ini, prog
}

// TestRunAllocation bounds the bytes one propagation of MD5 allocates.
// With a map per abstract store, cloned at every worklist step, it
// allocated about 79 MB; with dense slot slices, copied only where a
// node changes a location, about 4 MB. The bound is half the map
// figure: a return of per-step map clones fails it, where the
// wall-clock gates would see MD5 only about 1.5 times slower.
func TestRunAllocation(t *testing.T) {
	g, ini, _ := phase1(t, "MD5")
	propagate.Run(g, ini) // warm lazily built tables outside the count
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	propagate.Run(g, ini)
	runtime.ReadMemStats(&after)
	const bound = 79_000_000 / 2
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("propagate.Run(MD5) allocated %.1f MB", float64(got)/1e6)
	if got > bound {
		t.Errorf("propagate.Run(MD5) allocated %d bytes, want at most %d", got, bound)
	}
}

// TestConcurrentRunsShareInitial runs two propagations at once over one
// *policy.Initial, as concurrent checks of one spec do: each run's
// location table is its own, so neither run writes what the other
// reads (the race job runs this under -race), and both reach the
// stores a lone run reaches.
func TestConcurrentRunsShareInitial(t *testing.T) {
	g, ini, prog := phase1(t, "Btree2")
	render := func(r *propagate.Result) []string {
		var out []string
		for id := range r.In {
			out = append(out, r.In[id].String(), r.Out[id].String())
		}
		return out
	}
	want := render(propagate.Run(g, ini))
	var wg sync.WaitGroup
	got := make([][]string, 2)
	for i := range got {
		gi, err := cfg.Build(prog, cfg.Options{TrustedFuncs: ini.Spec.TrustedNames()})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = render(propagate.Run(gi, ini))
		}()
	}
	wg.Wait()
	for i := range got {
		if len(got[i]) != len(want) {
			t.Fatalf("run %d: %d stores, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("run %d: store %d differs:\n got %s\nwant %s", i, j, got[i][j], want[j])
			}
		}
	}
}

// BenchmarkRun times Phase 2 alone on each Figure 9 program.
func BenchmarkRun(b *testing.B) {
	for _, p := range progs.All() {
		prog, spec, err := p.Build()
		if err != nil {
			b.Fatal(err)
		}
		ini, err := policy.Prepare(spec)
		if err != nil {
			b.Fatal(err)
		}
		g, err := cfg.Build(prog, cfg.Options{TrustedFuncs: spec.TrustedNames()})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				propagate.Run(g, ini)
			}
		})
	}
}
