package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"time"

	"mcsafe"
	"mcsafe/internal/gen"
	"mcsafe/internal/isa"
	"mcsafe/internal/obs"
	"mcsafe/internal/policy"
	"mcsafe/internal/progs"
)

// program is one input of a checker-path workload with its known
// answer, which comes from the program's author (progs) or from the
// generator's construction (gen), never from the checker.
type program struct {
	name             string
	size             int // gen-scale size class; 0 for fig9
	asm, spec, entry string
	want             answer
	// build assembles the internal form the traced runner hands to
	// each layer's entry point.
	build func() (*isa.Program, *policy.Spec, error)

	prog  *mcsafe.Program
	pspec *mcsafe.Spec
	key   string // program fingerprint and policy hash
}

// answer is an input's known verdict: safe, or the sorted set of
// violation codes the checker must charge.
type answer struct {
	safe  bool
	codes []string
}

// verify compares a verdict with the known answer.
func (a answer) verify(name string, safe bool, codes []string) error {
	if safe != a.safe || !slices.Equal(codes, a.codes) {
		return fmt.Errorf("%s: verdict safe=%v codes=%v, want safe=%v codes=%v", name, safe, codes, a.safe, a.codes)
	}
	return nil
}

// fixtureAnswer is a generated fixture's constructed ground truth.
func fixtureAnswer(f *gen.Fixture) answer {
	if f.WantSafe {
		return answer{safe: true}
	}
	return answer{codes: []string{f.WantCode}}
}

// codeSet returns the sorted, deduplicated codes.
func codeSet(codes []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range codes {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

func violationCodes(vs []mcsafe.Violation) []string {
	codes := make([]string, len(vs))
	for i, v := range vs {
		codes[i] = v.Code
	}
	return codeSet(codes)
}

func fig9Programs(int64) []*program {
	var out []*program
	for _, b := range progs.All() {
		out = append(out, &program{
			name: b.Name, asm: b.Source, spec: b.Spec, entry: b.Entry,
			want: answer{b.WantSafe, codeSet(b.WantCodes)}, build: b.Build,
		})
	}
	return out
}

// gen-scale draws genScalePerSize fixtures at each size of the ladder.
// Kinds cycle through gen.Kinds along the list, so every kind appears
// at a small and at a large size and the mapping is the same for every
// seed; the seed draws only the generator seeds.
var genScaleSizes = []int{1000, 2000, 3000, 5000, 7000, 10000}

const genScalePerSize = 2

func genScalePrograms(seed int64) []*program {
	rng := rand.New(rand.NewSource(seed))
	var out []*program
	for i := range len(genScaleSizes) * genScalePerSize {
		f := gen.Generate(gen.Config{
			Seed: rng.Int63n(1 << 31),
			Size: genScaleSizes[i/genScalePerSize],
			Kind: gen.Kinds[i%len(gen.Kinds)],
		})
		out = append(out, fixtureProgram(f))
	}
	return out
}

func fixtureProgram(f *gen.Fixture) *program {
	return &program{
		name: f.Name, size: f.Size, asm: f.Asm, spec: f.Spec, entry: f.Entry,
		want: fixtureAnswer(f), build: f.Build,
	}
}

// assemble parses and assembles every program through the public API.
func assemble(ps []*program) error {
	for _, p := range ps {
		spec, err := mcsafe.ParseSpec(p.spec)
		if err != nil {
			return fmt.Errorf("%s: spec: %v", p.name, err)
		}
		prog, err := mcsafe.Assemble(p.asm, spec, p.entry)
		if err != nil {
			return fmt.Errorf("%s: asm: %v", p.name, err)
		}
		p.prog, p.pspec = prog, spec
		p.key = prog.Fingerprint().String() + "/" + spec.Hash().String()
	}
	return nil
}

// checkWorkload checks programs one at a time from a single caller.
type checkWorkload struct {
	name string
	// par is Phase 5's parallelism. At 1 the work is deterministic, so
	// effort counts must repeat exactly.
	par      int
	programs func(seed int64) []*program
}

func runFig9(r *run) error {
	return checkWorkload{name: "fig9", par: 1, programs: fig9Programs}.run(r)
}

// gen-scale runs at Parallelism 2, the mcsafe CLI default on a 2-CPU
// host, so Phase 5's parallel pool and shared cache are on its path.
func runGenScale(r *run) error {
	return checkWorkload{name: "gen-scale", par: 2, programs: genScalePrograms}.run(r)
}

func (w checkWorkload) run(r *run) error {
	var ps []*program
	setup, err := timeRepeated(!r.trace, func() error {
		ps = w.programs(r.seed)
		return assemble(ps)
	})
	if err != nil {
		return err
	}
	fps := make([]string, len(ps))
	for i, p := range ps {
		fps[i] = p.key
	}
	fmt.Printf("inputs %s seed=%d programs=%d digest=%s\n", w.name, r.seed, len(ps), digest(fps))
	if r.trace {
		return w.traced(r, ps)
	}
	return w.untraced(r, ps, setup)
}

// effort is the part of Stats that must repeat exactly at Parallelism 1.
type effort struct{ queries, steps, induction, conds int }

func effortOf(s mcsafe.Stats) effort {
	return effort{s.ProverQueries, s.PropagationSteps, s.InductionRuns, s.GlobalConds}
}

func (w checkWorkload) untraced(r *run, ps []*program, setup float64) error {
	ctx := context.Background()
	checker := mcsafe.New(mcsafe.WithParallelism(w.par))
	first := make([]*mcsafe.Stats, len(ps))
	check := func(i int) (time.Duration, mcsafe.PhaseTimes) {
		p := ps[i]
		t0 := time.Now()
		res, err := checker.Check(ctx, p.prog, p.pspec)
		d := time.Since(t0)
		r.res.Attempted++
		if err != nil {
			r.fail("%s: %v", p.name, err)
			return d, mcsafe.PhaseTimes{}
		}
		if err := p.want.verify(p.name, res.Safe, violationCodes(res.Violations)); err != nil {
			r.fail("%v", err)
		}
		if first[i] == nil {
			st := res.Stats // a copy: the Result holds the whole analysis
			first[i] = &st
		} else if w.par == 1 && effortOf(res.Stats) != effortOf(*first[i]) {
			r.fail("%s: effort counts changed between repetitions: %+v, then %+v", p.name, effortOf(*first[i]), effortOf(res.Stats))
		}
		return d, res.Times
	}
	// A warm-up pass, checked but not timed, lets the heap grow and
	// lazy set-up finish, and sets the first pass's repetitions.
	est := make([]time.Duration, len(ps))
	for i := range ps {
		est[i], _ = check(i)
	}
	phases := make([][]mcsafe.PhaseTimes, len(ps))
	samples := runPasses(r.seed, r.seconds, est, func(i int) time.Duration {
		d, t := check(i)
		phases[i] = append(phases[i], t)
		return d
	})

	meds := make([]float64, len(ps))
	insns := make([]int, len(ps))
	for i := range ps {
		meds[i] = median(durationsMS(samples[i]))
		if first[i] != nil {
			insns[i] = first[i].Instructions
		}
	}
	r.put("setup_s", "s", setup)
	r.put("max_rss_mb", "MB", maxRSSMB())
	r.put("check_geomean_ms", "ms", geomean(meds))
	r.put("insns_per_s", "1/s", insnsPerSecond(insns, meds))

	if w.name == "fig9" {
		fmt.Printf("%-15s %6s %8s %10s %10s %12s %10s\n", "Program", "Insns", "Samples", "Total(ms)", "Typestate", "Annot+Local", "Global")
		for i, p := range ps {
			col := func(f func(mcsafe.PhaseTimes) time.Duration) float64 {
				xs := make([]float64, len(phases[i]))
				for j, t := range phases[i] {
					xs[j] = ms(f(t))
				}
				return median(xs)
			}
			fmt.Printf("%-15s %6d %8d %10.3f %10.3f %12.3f %10.3f\n", p.name, insns[i], len(samples[i]), meds[i],
				col(func(t mcsafe.PhaseTimes) time.Duration { return t.Typestate }),
				col(func(t mcsafe.PhaseTimes) time.Duration { return t.AnnotLocal }),
				col(func(t mcsafe.PhaseTimes) time.Duration { return t.Global }))
		}
		return nil
	}
	printSizeRows(ps, insns, meds, samples)
	return nil
}

// insnsPerSecond is the size-weighted throughput: all instructions over
// the sum of the programs' median check times.
func insnsPerSecond(insns []int, medsMS []float64) float64 {
	n, t := 0.0, 0.0
	for i := range insns {
		n += float64(insns[i])
		t += medsMS[i] / 1000
	}
	return n / t
}

// printSizeRows prints one gen-scale row per size class.
func printSizeRows(ps []*program, insns []int, meds []float64, samples [][]time.Duration) {
	fmt.Printf("%-6s %9s %7s %8s %16s %10s\n", "Size", "Fixtures", "Insns", "Samples", "Geomean(ms)", "Insns/s")
	for _, size := range genScaleSizes {
		var is []int
		var ms []float64
		n := 0
		for i, p := range ps {
			if p.size == size {
				is = append(is, insns[i])
				ms = append(ms, meds[i])
				n += len(samples[i])
			}
		}
		total := 0
		for _, x := range is {
			total += x
		}
		fmt.Printf("%-6d %9d %7d %8d %16.3f %10.0f\n", size, len(is), total, n, geomean(ms), insnsPerSecond(is, ms))
	}
}

// Repetitions: each pass checks a program often enough that its
// samples fill about lightTarget, so a ms-scale program's median rests
// on many samples while MD5 and the 10^4-instruction fixtures are
// checked once per pass.
const (
	lightTarget = 250 * time.Millisecond
	maxReps     = 64
)

func repsFor(d time.Duration) int {
	if d <= 0 {
		return maxReps
	}
	return max(1, min(maxReps, int(lightTarget/d)))
}

// runPasses calls op (one check of program i, returning its time) in
// passes until budget is spent, finishing the pass in progress. A pass
// checks each program repsFor(its median so far) times, est[i] before
// the first pass, in an order shuffled from the seed and the pass
// number, so no program always follows the same neighbour (and its
// garbage).
func runPasses(seed int64, budget time.Duration, est []time.Duration, op func(int) time.Duration) [][]time.Duration {
	samples := make([][]time.Duration, len(est))
	reps := make([]int, len(est))
	for i, d := range est {
		reps[i] = repsFor(d)
	}
	start := time.Now()
	for pass := 0; time.Since(start) < budget; pass++ {
		var order []int
		for i, k := range reps {
			for range k {
				order = append(order, i)
			}
		}
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, i := range order {
			samples[i] = append(samples[i], op(i))
		}
		for i := range reps {
			reps[i] = repsFor(time.Duration(median(durationsMS(samples[i])) * float64(time.Millisecond)))
		}
	}
	return samples
}

// traced is the checker path's per-layer run. The untraced public
// checker first checks every program once: its Result is what the
// traced runner must reproduce (byte for byte, times aside, at
// Parallelism 1), and its times set the first pass's repetitions. The
// traced passes then run for the time budget, each check made the way
// `mcsafe -json` makes one (see cliCheck).
func (w checkWorkload) traced(r *run, ps []*program) error {
	ctx := context.Background()
	checker := mcsafe.New(mcsafe.WithParallelism(w.par))
	// target is a program's internal form and Checker.Check's answer.
	type target struct {
		prog  *isa.Program
		spec  *policy.Spec
		stats mcsafe.Stats
		safe  bool
		codes []string
		wire  string // the Result's wire form without its times
	}
	ts := make([]target, len(ps))
	est := make([]time.Duration, len(ps))
	byName := map[string]int{}
	for i, p := range ps {
		prog, spec, err := p.build()
		if err != nil {
			return err
		}
		if mcsafe.Hash(isa.Fingerprint(prog)) != p.prog.Fingerprint() {
			return fmt.Errorf("%s: the traced runner's program differs from the checked one", p.name)
		}
		byName[p.name] = i
		t0 := time.Now()
		res, err := checker.Check(ctx, p.prog, p.pspec)
		est[i] = time.Since(t0)
		r.res.Attempted++
		if err != nil {
			return fmt.Errorf("%s: untraced reference check: %v", p.name, err)
		}
		ts[i] = target{prog, spec, res.Stats, res.Safe, violationCodes(res.Violations), timeless(res.Wire())}
		if err := p.want.verify(p.name, res.Safe, ts[i].codes); err != nil {
			r.fail("%v", err)
		}
	}

	tr := obs.New()
	wk := tr.Worker(0)
	first := make([]counts, len(ps))
	checkMS := make([][]float64, len(ps))
	alloc := make([]uint64, len(ps))
	rt0 := readRuntime()
	samples := runPasses(r.seed, r.seconds, est, func(i int) time.Duration {
		p, t := ps[i], ts[i]
		a0 := readRuntime().allocBytes
		t0 := time.Now()
		res, check, err := cliCheck(ctx, wk, p, t.prog, t.spec, w.par)
		d := time.Since(t0)
		alloc[i] += readRuntime().allocBytes - a0
		r.res.Attempted++
		if err != nil {
			r.fail("%s: traced check: %v", p.name, err)
			return d
		}
		checkMS[i] = append(checkMS[i], ms(check))
		if err := p.want.verify(p.name, res.wire.Safe, res.codes); err != nil {
			r.fail("traced: %v", err)
		}
		if res.wire.Safe != t.safe || !slices.Equal(res.codes, t.codes) {
			r.fail("%s: traced verdict safe=%v %v differs from Checker.Check's safe=%v %v", p.name, res.wire.Safe, res.codes, t.safe, t.codes)
		}
		switch {
		case first[i] == nil:
			first[i] = res.counts
			if w.par != 1 {
				break
			}
			if res.counts.effort() != effortOf(t.stats) {
				r.fail("%s: traced counts %+v differ from Checker.Check's %+v", p.name, res.counts.effort(), effortOf(t.stats))
			} else if timeless(res.wire) != t.wire {
				r.fail("%s: the traced runner's Result differs from Checker.Check's", p.name)
			}
		case w.par == 1 && !maps.Equal(res.counts, first[i]):
			r.fail("%s: traced counts changed between repetitions", p.name)
		}
		return d
	})
	rt1 := readRuntime()
	spans := tr.Spans()
	if err := writeSpans(r, w.name, spans); err != nil {
		return err
	}

	// Per-program mean time in each layer. Layer spans have no
	// children, so a layer's self time is its duration.
	layerNS := make([]map[string]int64, len(ps))
	for i := range layerNS {
		layerNS[i] = map[string]int64{}
	}
	eachLayer(spans, func(op *obs.Span, layer string, ns int64) {
		layerNS[byName[op.Name]][layer] += ns
	})
	perProg := func(i int, layers ...string) float64 {
		var ns int64
		for _, layer := range layers {
			ns += layerNS[i][layer]
		}
		return float64(ns) / 1e6 / float64(len(samples[i]))
	}
	for _, layer := range tracedLayers {
		sum := 0.0
		for i := range ps {
			sum += perProg(i, layer)
		}
		r.put(layer+"_ms", "ms", sum/float64(len(ps)))
	}
	putCounts(r, first)

	meds := make([]float64, len(ps))
	allocMB := 0.0
	for i := range ps {
		meds[i] = median(checkMS[i])
		allocMB += float64(alloc[i]) / (1 << 20) / float64(len(samples[i]))
	}
	r.put("runtime.alloc_mb", "MB", allocMB/float64(len(ps)))
	r.put("runtime.gc_cpu_frac", "ratio", rt1.gcShareSince(rt0))
	r.put("traced.check_geomean_ms", "ms", geomean(meds))

	// Figure 9 layout from the traced run: Phase 1 is prepare plus CFG
	// construction and Phases 3 and 4 are reported together; Front is
	// parse, assemble and fingerprint, and Wire the verdict's encoding.
	fmt.Printf("%-15s %8s %10s %10s %10s %10s %12s %10s %10s\n", "Program", "Samples", "Check(ms)", "Front", "Prepare", "Typestate", "Annot+Local", "Global", "Wire")
	for i, p := range ps {
		fmt.Printf("%-15s %8d %10.3f %10.3f %10.3f %10.3f %12.3f %10.3f %10.3f\n", p.name, len(samples[i]), meds[i],
			perProg(i, "policy.parse", "isa.assemble", "address.fingerprint"), perProg(i, "policy.prepare", "cfg.build"),
			perProg(i, "propagate.run"), perProg(i, "annotate.run"), perProg(i, "vcgen.prove"), perProg(i, "wire.marshal"))
	}
	return nil
}

// cliCheck makes one traced check of p the way `mcsafe -json` makes
// one, under one "op" span: the public front end, whose program must
// be the internal form the layers are given, the five checker layers,
// and the verdict's wire encoding. It returns the checker layers' time.
func cliCheck(ctx context.Context, w *obs.Worker, p *program, prog *isa.Program, spec *policy.Spec, par int) (tracedResult, time.Duration, error) {
	defer w.Flush()
	defer w.EndAll()
	w.Begin("op", p.name)
	_, _, fp, ph, err := tracedFront(w, mcsafe.DefaultArch, p.spec, p.asm, p.entry)
	if err != nil {
		return tracedResult{}, 0, err
	}
	if fp+"/"+ph != p.key {
		return tracedResult{}, 0, fmt.Errorf("the front end's program differs from the checked one")
	}
	t0 := time.Now()
	res, err := tracedCheck(ctx, w, prog, spec, par)
	check := time.Since(t0)
	if err != nil {
		return res, check, err
	}
	w.Begin("layer", "wire.marshal")
	_, err = res.wire.Marshal()
	w.End()
	w.End()
	return res, check, err
}
