// Package progs contains the thirteen evaluation programs of Figure 9 of
// "Safety Checking of Machine Code", rewritten in SPARC V8 assembly in
// the style gcc -O (2.7.x) emits, together with their host-typestate
// specifications, safety policies, and invocation specifications. Each
// program records the paper's Figure 9 row so the benchmark harness can
// print paper-vs-measured tables (see EXPERIMENTS.md).
package progs

import (
	"fmt"
	"sort"
	"sync"

	"mcsafe/internal/core"
	"mcsafe/internal/isa"
	"mcsafe/internal/policy"
	"mcsafe/internal/sparc"
)

// PaperRow is one column of Figure 9: the program characteristics and
// the checking times (in seconds, on a 440 MHz Sun Ultra 10).
type PaperRow struct {
	Instructions int
	Branches     int
	Loops        int
	InnerLoops   int
	Calls        int
	TrustedCalls int
	GlobalConds  int

	TypestateSec  float64
	AnnotLocalSec float64
	GlobalSec     float64
	TotalSec      float64
}

// Benchmark is one evaluation program.
type Benchmark struct {
	Name  string
	Descr string
	// Source is SPARC assembly; Spec the policy text; Entry the entry
	// label.
	Source string
	Spec   string
	Entry  string
	// WantSafe is the expected verdict; WantViolations lists substrings
	// that must appear among the violations when unsafe. WantCodes lists
	// stable violation codes (annotate.Code*) that must be charged — the
	// machine-readable counterpart tools should prefer.
	WantSafe       bool
	WantViolations []string
	WantCodes      []string
	Paper          PaperRow
}

// Build assembles the program and parses its specification.
func (b *Benchmark) Build() (*isa.Program, *policy.Spec, error) {
	spec, err := policy.Parse(b.Spec, sparc.Arch)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", b.Name, err)
	}
	prog, err := sparc.Arch.Assemble(b.Source, isa.AsmOptions{
		DataSyms: spec.DataSyms(),
		Entry:    b.Entry,
		Externs:  spec.TrustedNames(),
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", b.Name, err)
	}
	return prog, spec, nil
}

// Check runs the five-phase checker on the benchmark.
func (b *Benchmark) Check(opts core.Options) (*core.Result, error) {
	prog, spec, err := b.Build()
	if err != nil {
		return nil, err
	}
	return core.Check(prog, spec, opts)
}

// All returns the thirteen Figure 9 programs in the paper's column
// order — the order of the paper's table, kept for the benchmark
// harness's paper-vs-measured rows. Enumeration that must be stable
// across runs and shards (listings, shard assignment, reports) should
// use Names or Sorted instead.
func All() []*Benchmark {
	return []*Benchmark{
		Sum(), PagingPolicy(), StartTimer(), Hash(), BubbleSort(),
		StopTimer(), Btree(), Btree2(), HeapSort2(), HeapSort(),
		JPVM(), StackSmashing(), MD5(),
	}
}

// registry is the name index over All(), built once. Registration is
// validated on first use: a duplicated benchmark name panics instead of
// silently shadowing an entry.
var registry struct {
	once   sync.Once
	byName map[string]*Benchmark
	names  []string
}

func ensureRegistry() {
	registry.once.Do(func() {
		registry.byName = make(map[string]*Benchmark)
		for _, b := range All() {
			if _, dup := registry.byName[b.Name]; dup {
				panic("progs: duplicate benchmark name " + b.Name)
			}
			registry.byName[b.Name] = b
			registry.names = append(registry.names, b.Name)
		}
		sort.Strings(registry.names)
	})
}

// Names returns the benchmark names in sorted order: the stable
// iteration order for listings, shard assignment, and reports.
func Names() []string {
	ensureRegistry()
	return append([]string(nil), registry.names...)
}

// Sorted returns the benchmarks in sorted-name order.
func Sorted() []*Benchmark {
	ensureRegistry()
	out := make([]*Benchmark, 0, len(registry.names))
	for _, name := range registry.names {
		out = append(out, registry.byName[name])
	}
	return out
}

// Get returns a benchmark by name, or nil.
func Get(name string) *Benchmark {
	ensureRegistry()
	return registry.byName[name]
}
