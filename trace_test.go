package mcsafe

// Tests for the observability layer as seen end to end through real
// checks: the span stream must be balanced and properly nested at every
// parallelism, the counters must be deterministic at Parallelism 1 and
// exactly equal the result's Stats at any parallelism, a shared Trace
// must survive concurrent checks under the race detector, and the JSON
// event stream for a small program must keep its golden shape
// (regenerate with MCSAFE_REGEN=1).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mcsafe/internal/core"
	"mcsafe/internal/obs"
	"mcsafe/internal/progs"
)

// checkEventBalance asserts the structural invariants of a trace's
// event stream: sequence numbers are unique, every span has exactly one
// begin and one end with begin before end, every referenced parent
// exists, and nesting is proper (a child begins after and ends before
// its parent).
func checkEventBalance(t *testing.T, events []obs.Event) {
	t.Helper()
	type spanSeqs struct {
		b, e   int64
		parent obs.SpanID
		hasB   bool
		hasE   bool
	}
	seen := map[int64]bool{}
	spans := map[obs.SpanID]*spanSeqs{}
	for _, ev := range events {
		if seen[ev.Seq] {
			t.Fatalf("duplicate sequence number %d", ev.Seq)
		}
		seen[ev.Seq] = true
		s := spans[ev.Span]
		if s == nil {
			s = &spanSeqs{}
			spans[ev.Span] = s
		}
		switch ev.Ev {
		case "b":
			if s.hasB {
				t.Fatalf("span %d begun twice", ev.Span)
			}
			s.hasB, s.b, s.parent = true, ev.Seq, ev.Parent
		case "e":
			if s.hasE {
				t.Fatalf("span %d ended twice", ev.Span)
			}
			s.hasE, s.e = true, ev.Seq
		default:
			t.Fatalf("unknown event kind %q", ev.Ev)
		}
	}
	for id, s := range spans {
		if !s.hasB || !s.hasE {
			t.Fatalf("span %d unbalanced: begin=%v end=%v", id, s.hasB, s.hasE)
		}
		if s.b >= s.e {
			t.Fatalf("span %d ends (seq %d) before it begins (seq %d)", id, s.e, s.b)
		}
		if s.parent == 0 {
			continue
		}
		p := spans[s.parent]
		if p == nil {
			t.Fatalf("span %d references missing parent %d", id, s.parent)
		}
		if !(p.b < s.b && s.e < p.e) {
			t.Fatalf("span %d (seq %d..%d) not nested inside parent %d (seq %d..%d)",
				id, s.b, s.e, s.parent, p.b, p.e)
		}
	}
}

// observedCheck runs one benchmark with a fresh trace at the given
// parallelism through the internal driver (what the public Checker
// wraps).
func observedCheck(t *testing.T, b *progs.Benchmark, par int) (*core.Result, *obs.Trace) {
	t.Helper()
	prog, spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	res, err := core.CheckContext(context.Background(), prog, spec,
		core.Options{Parallelism: par, Obs: tr})
	if err != nil {
		t.Fatalf("parallelism %d: %v", par, err)
	}
	return res, tr
}

// counterStatsInvariants cross-checks the merged counters against the
// result's Stats: the core emits the counters once from the merged
// stats, so they must be exactly equal at every parallelism.
func counterStatsInvariants(t *testing.T, res *core.Result, tr *obs.Trace) {
	t.Helper()
	for _, c := range []struct {
		name string
		want int
	}{
		{"solver_valid_queries", res.Stats.ProverQueries},
		{"vcgen_conditions", res.Stats.GlobalConds},
		{"annotate_global_conds", res.Stats.GlobalConds},
		{"induction_runs", res.Stats.InductionRuns},
		{"propagate_steps", res.Stats.PropagationSteps},
	} {
		if got := tr.Counter(c.name); got != int64(c.want) {
			t.Errorf("counter %s = %d, want %d (Stats)", c.name, got, c.want)
		}
	}
}

// TestTraceBalanceAndCounters checks every Figure 9 program at
// Parallelism 1 and GOMAXPROCS: the event stream must be balanced and
// properly nested, the span census must match the program (one check
// span, four phase spans, one condition span per global condition), and
// the merged counters must equal the result's Stats.
func TestTraceBalanceAndCounters(t *testing.T) {
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
			for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
				res, tr := observedCheck(t, b, par)
				checkEventBalance(t, tr.Events())
				counterStatsInvariants(t, res, tr)
				byKind := map[string]int{}
				for _, s := range tr.Spans() {
					byKind[s.Kind]++
				}
				if byKind["check"] != 1 {
					t.Errorf("parallelism %d: %d check spans, want 1", par, byKind["check"])
				}
				if byKind["phase"] != 4 {
					t.Errorf("parallelism %d: %d phase spans, want 4", par, byKind["phase"])
				}
				if byKind["cond"] != res.Stats.GlobalConds {
					t.Errorf("parallelism %d: %d cond spans, want %d",
						par, byKind["cond"], res.Stats.GlobalConds)
				}
				if res.Stats.InductionRuns != byKind["induction"] {
					t.Errorf("parallelism %d: %d induction spans, want %d",
						par, byKind["induction"], res.Stats.InductionRuns)
				}
			}
		})
	}
}

// TestTraceCounterDeterminism runs each program twice at Parallelism 1:
// the merged counters and the timing-stripped event streams must be
// byte-identical — one worker pulls the chunks in a fixed order, so
// Parallelism 1 is fully deterministic.
func TestTraceCounterDeterminism(t *testing.T) {
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
			_, tr1 := observedCheck(t, b, 1)
			_, tr2 := observedCheck(t, b, 1)
			if c1, c2 := tr1.Counters(), tr2.Counters(); !reflect.DeepEqual(c1, c2) {
				t.Errorf("counters diverged across runs:\n run 1: %v\n run 2: %v", c1, c2)
			}
			e1, e2 := normalizeEvents(tr1.Events()), normalizeEvents(tr2.Events())
			if !reflect.DeepEqual(e1, e2) {
				t.Errorf("event streams diverged across runs (%d vs %d events)", len(e1), len(e2))
			}
		})
	}
}

// normalizeEvents strips the wall-clock offsets, leaving the
// deterministic structure: sequence, nesting, kinds, names, attributes.
func normalizeEvents(events []obs.Event) []obs.Event {
	out := append([]obs.Event(nil), events...)
	for i := range out {
		out[i].T = 0
	}
	return out
}

// TestTraceSharedConcurrentChecks drives one shared Trace from many
// concurrent checks at parallelism > 1 — the regime the race detector
// tier exercises. The merged stream must still be balanced, and the
// counters must be the sums over all checks.
func TestTraceSharedConcurrentChecks(t *testing.T) {
	sum, hash := progs.Get("Sum"), progs.Get("Hash")
	// Solo runs establish the per-check condition counts the merged
	// counters must sum to.
	resSum, _ := observedCheck(t, sum, 1)
	resHash, _ := observedCheck(t, hash, 1)
	tr := obs.New()
	const perProgram = 4
	var wg sync.WaitGroup
	for _, b := range []*progs.Benchmark{sum, hash} {
		for i := 0; i < perProgram; i++ {
			b := b
			wg.Add(1)
			go func() {
				defer wg.Done()
				prog, spec, err := b.Build()
				if err != nil {
					t.Error(err)
					return
				}
				res, err := core.CheckContext(context.Background(), prog, spec,
					core.Options{Parallelism: 2, Obs: tr})
				if err != nil {
					t.Error(err)
					return
				}
				if !res.Safe {
					t.Errorf("%s reported unsafe", b.Name)
				}
			}()
		}
	}
	wg.Wait()
	checkEventBalance(t, tr.Events())
	checkSpans := 0
	for _, s := range tr.Spans() {
		if s.Kind == "check" {
			checkSpans++
		}
	}
	if want := 2 * perProgram; checkSpans != want {
		t.Errorf("%d check spans, want %d", checkSpans, want)
	}
	want := int64(perProgram * (resSum.Stats.GlobalConds + resHash.Stats.GlobalConds))
	if got := tr.Counter("vcgen_conditions"); got != want {
		t.Errorf("vcgen_conditions = %d, want %d", got, want)
	}
}

// TestTraceGoldenJSON locks the JSON event-stream shape for the Figure 1
// program at Parallelism 1 against a golden file. Wall-clock offsets are
// zeroed; everything else — sequence numbers, span nesting, kinds,
// names, attributes (including formula texts), counters — is
// deterministic and must not drift silently. The schema is stable:
// fields are only ever added. Regenerate with MCSAFE_REGEN=1.
func TestTraceGoldenJSON(t *testing.T) {
	spec, err := ParseSpec(fig1Spec)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble(fig1Asm, spec, "")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	c := New(WithParallelism(1), WithObserver(tr))
	res, err := c.Check(context.Background(), prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safe {
		t.Fatalf("Figure 1 should be safe: %+v", res.Violations)
	}
	snap := tr.Snapshot()
	snap.Events = normalizeEvents(snap.Events)
	got, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "sum_trace.json")
	if os.Getenv("MCSAFE_REGEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with MCSAFE_REGEN=1)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace JSON diverged from %s (regenerate with MCSAFE_REGEN=1 if intended)\ngot %d bytes, want %d",
			golden, len(got), len(want))
	}
}

// TestCheckContextCancelled: a cancelled context must surface as a
// *PhaseError naming the interrupted phase and unwrapping to
// context.Canceled — and an observed check must still leave a balanced
// event stream behind.
func TestCheckContextCancelled(t *testing.T) {
	spec, err := ParseSpec(fig1Spec)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble(fig1Asm, spec, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	tr := NewTrace()
	c := New(WithObserver(tr))
	res, err := c.Check(ctx, prog, spec)
	if err == nil {
		t.Fatalf("cancelled check returned a result: %+v", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not unwrap to context.Canceled: %v", err)
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a *PhaseError: %T %v", err, err)
	}
	if pe.Phase == "" {
		t.Error("PhaseError does not name the interrupted phase")
	}
	checkEventBalance(t, tr.Events())

	// The batch API propagates the cancellation to every item.
	for _, out := range c.CheckAll(ctx, []BatchItem{{Prog: prog, Spec: spec}, {Prog: prog, Spec: spec}}, 2) {
		if out.Err == nil {
			t.Error("cancelled batch item returned no error")
		} else if !errors.Is(out.Err, context.Canceled) {
			t.Errorf("batch error does not unwrap to context.Canceled: %v", out.Err)
		}
	}
}

// TestExplainVerdictPath checks Result.Explain on a real violation: the
// paging-policy null-deref must render its stable code, the failed
// condition's predicate, the proof attempts (its facts mention the
// pointer, so the facts attempt leads and the bare one comes last), and
// — because the check was observed — the condition's span timing.
func TestExplainVerdictPath(t *testing.T) {
	b := progs.Get("PagingPolicy")
	spec, err := ParseSpec(b.Spec)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble(b.Source, spec, b.Entry)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	c := New(WithParallelism(1), WithObserver(tr))
	res, err := c.Check(context.Background(), prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Safe {
		t.Fatal("PagingPolicy must be rejected")
	}
	var v *Violation
	for i := range res.Violations {
		if res.Violations[i].Code == CodeNullPtr {
			v = &res.Violations[i]
		}
	}
	if v == nil {
		t.Fatalf("no %q violation: %+v", CodeNullPtr, res.Violations)
	}
	text := res.Explain(*v)
	for _, want := range []string{"[nullptr]", "condition #", "predicate:", "attempt 1 (facts): FAILED",
		"checked at the node", "attempt 3 (bare): FAILED", "proof time:"} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("Explain output missing %q:\n%s", want, text)
		}
	}
}
