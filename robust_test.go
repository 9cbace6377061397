package mcsafe

// Robustness contracts as seen through the public API: an exhausted
// resource envelope degrades fail-closed to "resource"-coded violations
// (never an acceptance, never a merits verdict), a generous envelope is
// bit-identical to an ungoverned run, contained panics surface as
// structured *PhaseError/*InternalError chains, and neither the pool,
// the batch API, nor a cancelled check leaks goroutines.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mcsafe/internal/core"
	"mcsafe/internal/faults"
	"mcsafe/internal/leakcheck"
	"mcsafe/internal/progs"
)

// fig1Check assembles the Figure 1 program and runs it through a
// configured public Checker.
func fig1Check(t *testing.T, options ...CheckerOption) (*Result, error) {
	t.Helper()
	spec, err := ParseSpec(fig1Spec)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble(fig1Asm, spec, "")
	if err != nil {
		t.Fatal(err)
	}
	return New(options...).Check(context.Background(), prog, spec)
}

// TestBudgetExhaustionFailsClosed: with a one-step solver budget, the
// Figure 1 program (safe on the merits) must be rejected with every
// global condition charged the stable "resource" code — and the check
// must return promptly, with the governance counters recording why.
func TestBudgetExhaustionFailsClosed(t *testing.T) {
	tr := NewTrace()
	start := time.Now()
	res, err := fig1Check(t, WithParallelism(1), WithObserver(tr),
		WithBudget(Budget{SolverSteps: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("budget-exhausted check took %v; exhaustion must not stall", elapsed)
	}
	if res.Safe {
		t.Fatal("budget exhaustion must never accept a program")
	}
	if len(res.Violations) == 0 {
		t.Fatal("unsafe result with no violations")
	}
	for _, v := range res.Violations {
		if v.Code != CodeResource {
			t.Errorf("violation %v: code %q, want %q", v, v.Code, CodeResource)
		}
	}
	if got := tr.Counter("budget_exhausted"); got < 1 {
		t.Errorf("budget_exhausted counter = %d, want >= 1", got)
	}
	if got := tr.Counter("resource_conds"); got != int64(len(res.Violations)) {
		t.Errorf("resource_conds counter = %d, want %d", got, len(res.Violations))
	}
}

// TestDeadlineExhaustionFailsClosed: an already-expired deadline must
// likewise degrade to resource-coded violations, not an acceptance or
// an error, and must charge the deadline counter.
func TestDeadlineExhaustionFailsClosed(t *testing.T) {
	tr := NewTrace()
	res, err := fig1Check(t, WithParallelism(1), WithObserver(tr),
		WithBudget(Budget{Deadline: time.Nanosecond}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Safe {
		t.Fatal("deadline exhaustion must never accept a program")
	}
	for _, v := range res.Violations {
		if v.Code != CodeResource {
			t.Errorf("violation %v: code %q, want %q", v, v.Code, CodeResource)
		}
	}
	if got := tr.Counter("deadline_hits"); got < 1 {
		t.Errorf("deadline_hits counter = %d, want >= 1", got)
	}
}

// TestBudgetExplainGolden locks the Explain rendering of a
// budget-exhausted violation: the resource-limited line with its
// re-run advice must be present and keep its golden shape. Regenerate
// with MCSAFE_REGEN=1.
func TestBudgetExplainGolden(t *testing.T) {
	res, err := fig1Check(t, WithParallelism(1), WithBudget(Budget{SolverSteps: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Safe || len(res.Violations) == 0 {
		t.Fatal("expected resource-coded violations")
	}
	var got bytes.Buffer
	got.WriteString(res.Explain(res.Violations[0]))
	if !strings.Contains(got.String(), "resource-limited:") {
		t.Fatalf("Explain output missing the resource-limited line:\n%s", got.String())
	}

	golden := filepath.Join("testdata", "budget_explain.golden")
	if os.Getenv("MCSAFE_REGEN") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with MCSAFE_REGEN=1)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Explain diverged from %s (regenerate with MCSAFE_REGEN=1 if intended):\ngot:\n%swant:\n%s",
			golden, got.String(), want)
	}
}

// TestGenerousBudgetBitIdentical: a budget far above any program's needs
// must leave verdicts, violations, stats, and counters bit-identical to
// the ungoverned run — governance is observable only when it bites.
func TestGenerousBudgetBitIdentical(t *testing.T) {
	generous := Budget{Deadline: time.Hour, SolverSteps: 1 << 40, CondTimeout: time.Hour}
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
			run := func(budget Budget) (*core.Result, *Trace) {
				tr := NewTrace()
				res, err := core.Check(prog, spec, core.Options{
					Parallelism: 1, Obs: tr, Budget: budget,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res, tr
			}
			bare, bareTr := run(Budget{})
			gov, govTr := run(generous)
			if bare.Safe != gov.Safe {
				t.Errorf("Safe diverged: ungoverned %v, governed %v", bare.Safe, gov.Safe)
			}
			if !reflect.DeepEqual(bare.Violations, gov.Violations) {
				t.Errorf("violations diverged:\n ungoverned: %+v\n governed:   %+v",
					bare.Violations, gov.Violations)
			}
			if bare.Stats != gov.Stats {
				t.Errorf("stats diverged:\n ungoverned: %+v\n governed:   %+v", bare.Stats, gov.Stats)
			}
			if c1, c2 := bareTr.Counters(), govTr.Counters(); !reflect.DeepEqual(c1, c2) {
				t.Errorf("counters diverged:\n ungoverned: %v\n governed:   %v", c1, c2)
			}
		})
	}
}

// TestInternalErrorPropagation: a panic contained at a checking boundary
// must reach the public API as a *PhaseError wrapping an *InternalError
// that names the phase, fingerprints the program, and records the panic.
func TestInternalErrorPropagation(t *testing.T) {
	cases := []struct {
		point     faults.Point
		wantPhase string
		wantCond  bool // the error should name the condition being proved
	}{
		{faults.Lift, "prepare", false},
		{faults.SolverStep, "global", true},
	}
	spec, err := ParseSpec(fig1Spec)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble(fig1Asm, spec, "")
	if err != nil {
		t.Fatal(err)
	}
	wantProgram := prog.Fingerprint().String()
	for _, tc := range cases {
		t.Run(string(tc.point), func(t *testing.T) {
			restore := faults.Activate(faults.NewPlan(faults.Fault{Point: tc.point, Kind: faults.Panic}))
			defer restore()
			res, err := fig1Check(t, WithParallelism(2))
			if err == nil {
				t.Fatalf("contained panic returned a result: %+v", res)
			}
			var pe *PhaseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is not a *PhaseError: %T %v", err, err)
			}
			if pe.Phase != tc.wantPhase {
				t.Errorf("phase %q, want %q", pe.Phase, tc.wantPhase)
			}
			var ie *InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("error does not wrap an *InternalError: %v", err)
			}
			if !strings.Contains(ie.Panic, "injected panic") {
				t.Errorf("panic value not recorded: %q", ie.Panic)
			}
			if ie.Program != wantProgram {
				t.Errorf("InternalError names program %q, want its fingerprint %s", ie.Program, wantProgram)
			}
			if tc.wantCond && ie.Cond < 0 {
				t.Errorf("InternalError.Cond = %d, want the condition being proved", ie.Cond)
			}
		})
	}
}

// TestNoGoroutineLeaks: the proving pool, the batch API, a cancelled
// check, and a budget-exhausted check must all join every goroutine
// they start.
func TestNoGoroutineLeaks(t *testing.T) {
	defer leakcheck.Check(t)()
	spec, err := ParseSpec(fig1Spec)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble(fig1Asm, spec, "")
	if err != nil {
		t.Fatal(err)
	}

	// Parallel pool.
	if _, err := New(WithParallelism(8)).Check(context.Background(), prog, spec); err != nil {
		t.Fatal(err)
	}

	// Batch API.
	items := []BatchItem{{Prog: prog, Spec: spec}, {Prog: prog, Spec: spec}, {Prog: prog, Spec: spec}}
	for _, out := range New().CheckAll(context.Background(), items, 2) {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
	}

	// Cancelled check (cancellation races the check; either outcome is
	// fine, goroutines must still join).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	New(WithParallelism(4)).Check(ctx, prog, spec)

	// Budget-exhausted parallel check.
	if _, err := New(WithParallelism(4), WithBudget(Budget{SolverSteps: 1})).
		Check(context.Background(), prog, spec); err != nil {
		t.Fatal(err)
	}
}
