// Package faults_test drives real checks through the fault-injection
// harness: every robustness boundary in the pipeline is exercised with
// panics, delays, and forced cancellations, and the checker must always
// terminate with a well-formed Result or a structured error — never a
// process crash, a hang, or a leaked goroutine.
//
// The sweeps are deterministic: a failing combination replays from its
// seed alone. The ordinary run uses a small program set and seed range;
// MCSAFE_CHAOS=full (the nightly chaos tier) sweeps every benchmark and
// a much wider seed space.
package faults_test

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"mcsafe/internal/core"
	"mcsafe/internal/difftest"
	"mcsafe/internal/faults"
	"mcsafe/internal/isa"
	"mcsafe/internal/leakcheck"
	"mcsafe/internal/policy"
	"mcsafe/internal/progs"
)

// chaosFull reports whether the nightly full sweep is requested.
func chaosFull() bool { return os.Getenv("MCSAFE_CHAOS") == "full" }

// chaosPrograms picks the benchmark set: a fast trio ordinarily, every
// benchmark under MCSAFE_CHAOS=full.
func chaosPrograms() []string {
	if chaosFull() {
		var names []string
		for _, b := range progs.All() {
			names = append(names, b.Name)
		}
		return names
	}
	return []string{"Sum", "Hash", "StartTimer"}
}

// built caches program builds so the sweeps don't re-assemble per seed.
var built = map[string]struct {
	prog *isa.Program
	spec *policy.Spec
}{}

func buildProg(t *testing.T, name string) (*isa.Program, *policy.Spec) {
	t.Helper()
	if c, ok := built[name]; ok {
		return c.prog, c.spec
	}
	b := progs.Get(name)
	if b == nil {
		t.Fatalf("unknown benchmark %q", name)
	}
	prog, spec, err := b.Build()
	if err != nil {
		t.Fatalf("building %s: %v", name, err)
	}
	built[name] = struct {
		prog *isa.Program
		spec *policy.Spec
	}{prog, spec}
	return prog, spec
}

// assertWellFormed is the chaos invariant: exactly one of res/err, a
// structured *PhaseError on the error path, injected panics recognizable
// as such, and a Result whose violations render without panicking.
// strictErr additionally requires every error to be a *PhaseError (true
// for original programs, which never fail analysis on the merits; false
// for mutants, which may be rejected with plain analysis errors).
func assertWellFormed(t *testing.T, tag string, f faults.Fault, res *core.Result, err error, strictErr bool) {
	t.Helper()
	if (res == nil) == (err == nil) {
		t.Fatalf("%s: want exactly one of result/error, got res=%v err=%v", tag, res, err)
	}
	if err != nil {
		var pe *core.PhaseError
		if errors.As(err, &pe) {
			if pe.Phase == "" {
				t.Errorf("%s: PhaseError with empty phase: %v", tag, err)
			}
		} else if strictErr {
			t.Errorf("%s: unstructured error: %v", tag, err)
		}
		var ie *core.InternalError
		if errors.As(err, &ie) {
			// A contained panic must be the injected one — anything else
			// is a genuine checker bug the injection shook loose.
			if f.Kind != faults.Panic || !strings.Contains(ie.Panic, "injected panic") {
				t.Errorf("%s: internal error not attributable to the injected fault: %v", tag, err)
			}
			if ie.Program == "" {
				t.Errorf("%s: InternalError without a program address", tag)
			}
		}
		return
	}
	if !res.Safe && len(res.Violations) == 0 {
		t.Errorf("%s: unsafe result with no violations", tag)
	}
	for _, v := range res.Violations {
		if v.Code == "" {
			t.Errorf("%s: violation without a code: %v", tag, v)
		}
		if res.Explain(v) == "" {
			t.Errorf("%s: empty explanation for %v", tag, v)
		}
	}
}

// TestChaosSeedSweep drives the benchmark originals through
// seed-derived faults: any (point, kind, hit) combination must leave
// the checker terminating, structured, and leak-free.
func TestChaosSeedSweep(t *testing.T) {
	defer leakcheck.Check(t)()
	names := chaosPrograms()
	seeds := int64(24)
	if chaosFull() {
		seeds = 200
	}
	for seed := int64(1); seed <= seeds; seed++ {
		name := names[seed%int64(len(names))]
		prog, spec := buildProg(t, name)
		ctx, cancel := context.WithCancel(context.Background())
		plan, f := faults.PlanFromSeed(seed, cancel)
		restore := faults.Activate(plan)
		res, err := core.CheckContext(ctx, prog, spec, core.Options{
			// The deadline bounds Repeat-delay faults; it is generous
			// enough that no fast benchmark ever trips it on the merits.
			Budget: core.Budget{Deadline: 2 * time.Second},
		})
		restore()
		cancel()
		assertWellFormed(t, fmt.Sprintf("seed %d (%s, %s@%s#%d)", seed, name, f.Kind, f.Point, f.After),
			f, res, err, true)
	}
}

// TestChaosMutants drives single-word mutants through the same faults:
// malformed inputs and injected misbehavior together must still never
// crash, hang, or leak.
func TestChaosMutants(t *testing.T) {
	defer leakcheck.Check(t)()
	perProg, seedsPer := 6, int64(4)
	if chaosFull() {
		perProg, seedsPer = 20, 10
	}
	for _, name := range chaosPrograms() {
		prog, spec := buildProg(t, name)
		rng := rand.New(rand.NewSource(42))
		for mi, m := range difftest.Mutants(prog, rng, perProg) {
			mp, err := m.Apply(prog)
			if err != nil {
				continue
			}
			for seed := int64(1); seed <= seedsPer; seed++ {
				ctx, cancel := context.WithCancel(context.Background())
				plan, f := faults.PlanFromSeed(seed*1000003+int64(mi), cancel)
				restore := faults.Activate(plan)
				res, cerr := core.CheckContext(ctx, mp, spec, core.Options{
					Budget: core.Budget{Deadline: 2 * time.Second},
				})
				restore()
				cancel()
				assertWellFormed(t, fmt.Sprintf("%s mutant %d (%s) seed %d", name, mi, m.Desc, seed),
					f, res, cerr, false)
			}
		}
	}
}

// TestPanicContainedAtEveryPoint arms a first-hit panic at each
// injection point in turn and asserts the structured-error contract:
// a *PhaseError wrapping an *InternalError that names the phase,
// carries the program hash, and records the injected panic value.
func TestPanicContainedAtEveryPoint(t *testing.T) {
	defer leakcheck.Check(t)()
	prog, spec := buildProg(t, "Sum")
	wantPhase := map[faults.Point]string{
		faults.Lift:        "prepare",
		faults.SolverStep:  "global",
		faults.CacheLookup: "global",
		faults.WorkerStart: "global",
	}
	for _, pt := range faults.Points {
		restore := faults.Activate(faults.NewPlan(faults.Fault{Point: pt, Kind: faults.Panic}))
		// Parallelism 4 keeps the proving pool (and so WorkerStart and
		// the shared cache) on the exercised path.
		res, err := core.Check(prog, spec, core.Options{Parallelism: 4})
		restore()
		if err == nil {
			t.Errorf("%s: panic produced no error (res=%+v)", pt, res)
			continue
		}
		var pe *core.PhaseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error is not a *PhaseError: %v", pt, err)
			continue
		}
		if pe.Phase != wantPhase[pt] {
			t.Errorf("%s: phase %q, want %q", pt, pe.Phase, wantPhase[pt])
		}
		var ie *core.InternalError
		if !errors.As(err, &ie) {
			t.Errorf("%s: error does not wrap an *InternalError: %v", pt, err)
			continue
		}
		if !strings.Contains(ie.Panic, "injected panic at "+string(pt)) {
			t.Errorf("%s: panic value not recorded: %q", pt, ie.Panic)
		}
		if fp := isa.Fingerprint(prog); ie.Program != hex.EncodeToString(fp[:]) {
			t.Errorf("%s: program %s, want the content address %x", pt, ie.Program, fp)
		}
		if len(ie.Stack) == 0 {
			t.Errorf("%s: InternalError without a stack", pt)
		}
	}
}

// TestBatchSurvivesPanickingItem: in a CheckAll batch, a fault that
// panics one item's check must yield a structured error for that item
// while the batch itself completes and every outcome stays exclusive.
func TestBatchSurvivesPanickingItem(t *testing.T) {
	defer leakcheck.Check(t)()
	var items []core.CheckItem
	for _, name := range chaosPrograms() {
		prog, spec := buildProg(t, name)
		items = append(items, core.CheckItem{Prog: prog, Spec: spec})
	}
	// The third solver tick panics: items with global conditions fail
	// with a contained error; any item that never reaches a third tick
	// completes normally. Either way the batch must return len(items)
	// exclusive outcomes.
	restore := faults.Activate(faults.NewPlan(faults.Fault{
		Point: faults.SolverStep, Kind: faults.Panic, After: 3, Repeat: true,
	}))
	outs := core.CheckAll(items, 2)
	restore()
	if len(outs) != len(items) {
		t.Fatalf("batch returned %d outcomes for %d items", len(outs), len(items))
	}
	sawError := false
	for i, o := range outs {
		if (o.Result == nil) == (o.Err == nil) {
			t.Errorf("item %d: want exactly one of result/error, got %+v", i, o)
		}
		if o.Err != nil {
			sawError = true
			var pe *core.PhaseError
			if !errors.As(o.Err, &pe) {
				t.Errorf("item %d: unstructured batch error: %v", i, o.Err)
			}
		}
	}
	if !sawError {
		t.Error("no item hit the injected panic; the fault plan is miswired")
	}
}

// TestChaosLeavesNoResidue: after a faulted (and disarmed) run, a clean
// check must be bit-identical to one that never saw injection — the
// harness is process-global state and must restore completely.
func TestChaosLeavesNoResidue(t *testing.T) {
	defer leakcheck.Check(t)()
	prog, spec := buildProg(t, "Sum")
	baseline, err := core.Check(prog, spec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	restore := faults.Activate(faults.NewPlan(faults.Fault{Point: faults.SolverStep, Kind: faults.Panic}))
	if _, err := core.Check(prog, spec, core.Options{}); err == nil {
		t.Fatal("armed panic produced no error")
	}
	restore()
	if faults.Active() {
		t.Fatal("plan still armed after restore")
	}

	after, err := core.Check(prog, spec, core.Options{})
	if err != nil {
		t.Fatalf("clean check after chaos failed: %v", err)
	}
	if after.Safe != baseline.Safe || len(after.Violations) != len(baseline.Violations) ||
		after.Stats != baseline.Stats {
		t.Errorf("residue: baseline safe=%v stats=%+v, after safe=%v stats=%+v",
			baseline.Safe, baseline.Stats, after.Safe, after.Stats)
	}
}
