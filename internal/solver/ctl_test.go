package solver

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mcsafe/internal/expr"
	"mcsafe/internal/faults"
)

// chainFormula builds a valid but elimination-heavy query: a
// transitivity chain x0 >= x1 >= ... >= xn implying x0 >= xn. Each link
// costs the prover a couple of governance ticks, so n calibrates how
// much budget the proof needs (~2n ticks).
func chainFormula(n int) expr.Formula {
	x := func(i int) expr.LinExpr { return expr.V(expr.Var(fmt.Sprintf("x%d", i))) }
	var hyp []expr.Formula
	for i := 0; i < n; i++ {
		hyp = append(hyp, expr.GeExpr(x(i), x(i+1)))
	}
	return expr.Implies(expr.Conj(hyp...), expr.GeExpr(x(0), x(n)))
}

// TestStepBudgetTripsConservatively: a query whose proof exceeds the
// step budget must degrade to the conservative "not proved", latch the
// budget stop, and never be cached.
func TestStepBudgetTripsConservatively(t *testing.T) {
	f := chainFormula(2000)

	// Sanity: an ungoverned prover proves the chain.
	if !New().Valid(f) {
		t.Fatal("ungoverned prover should prove the chain")
	}

	p := New()
	p.Ctl = NewCtl(nil, time.Time{}, 50)
	if p.Valid(f) {
		t.Fatal("budget-tripped query must answer false (conservative)")
	}
	if got := p.ResourceStop(); got != StopBudget {
		t.Fatalf("ResourceStop() = %q, want %q", got, StopBudget)
	}
	if hits := p.Ctl.BudgetHits(); hits != 1 {
		t.Errorf("BudgetHits() = %d, want 1", hits)
	}
	if n := p.cache.Len(); n != 0 {
		t.Errorf("tripped verdict was cached: %d entries", n)
	}
}

// TestGenerousBudgetBitIdentical: with a budget far above the proof's
// needs, verdicts and effort stats must be identical to the ungoverned
// prover on a mixed workload.
func TestGenerousBudgetBitIdentical(t *testing.T) {
	workload := []expr.Formula{
		chainFormula(100),
		expr.Ge(expr.Constant(-1)),
		expr.Implies(expr.Ge(expr.V("x")), expr.Ge(expr.V("x"))),
		expr.Negate(expr.Eq(expr.V("x").Scale(2).AddConst(-1))),
		chainFormula(40),
	}
	bare, governed := New(), New()
	governed.Ctl = NewCtl(context.Background(), time.Now().Add(time.Hour), 1<<40)
	for i, f := range workload {
		got, want := governed.Valid(f), bare.Valid(f)
		if got != want {
			t.Errorf("query %d: governed %v, ungoverned %v", i, got, want)
		}
	}
	if bare.Stats != governed.Stats {
		t.Errorf("stats diverged: ungoverned %+v, governed %+v", bare.Stats, governed.Stats)
	}
	if got := governed.ResourceStop(); got != "" {
		t.Errorf("generous budget tripped: %q", got)
	}
}

// TestCondTimeoutIsolated: a per-condition deadline abandons the slow
// condition's query, and BeginCond for the next condition clears the
// trip so later proofs proceed.
func TestCondTimeoutIsolated(t *testing.T) {
	// Each solver tick sleeps 1ms, so the 64-tick slow check fires
	// ~64ms in — far past the 10ms condition deadline.
	restore := faults.Activate(faults.NewPlan(faults.Fault{
		Point: faults.SolverStep, Kind: faults.Delay, Repeat: true, Sleep: time.Millisecond,
	}))
	p := New()
	p.Ctl = NewCtl(nil, time.Time{}, 0)
	p.BeginCond(time.Now().Add(10 * time.Millisecond))
	if p.Valid(chainFormula(2000)) {
		t.Fatal("timed-out query must answer false")
	}
	if got := p.ResourceStop(); got != StopCondTimeout {
		t.Fatalf("ResourceStop() = %q, want %q", got, StopCondTimeout)
	}
	if p.Ctl.CondTimeouts() != 1 {
		t.Errorf("CondTimeouts() = %d, want 1", p.Ctl.CondTimeouts())
	}
	restore()

	// The next condition starts a fresh scope: the trip clears and an
	// easy proof succeeds.
	p.BeginCond(time.Time{})
	if got := p.ResourceStop(); got != "" {
		t.Fatalf("trip survived BeginCond: %q", got)
	}
	if !p.Valid(expr.Ge(expr.Constant(0))) {
		t.Error("prover did not recover after a condition timeout")
	}
}

// TestCancelReturnsPromptly: cancelling the context mid-query must
// unwind the solver's hot loops within a couple of slow-check windows,
// even when every tick is artificially slowed — the stuck-query
// scenario.
func TestCancelReturnsPromptly(t *testing.T) {
	restore := faults.Activate(faults.NewPlan(faults.Fault{
		Point: faults.SolverStep, Kind: faults.Delay, Repeat: true, Sleep: time.Millisecond,
	}))
	defer restore()

	ctx, cancel := context.WithCancel(context.Background())
	p := New()
	p.Ctl = NewCtl(ctx, time.Time{}, 0)
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()

	// Slowed 1ms/tick, the ~4000-tick chain would take ~4s un-cancelled.
	start := time.Now()
	ok := p.Valid(chainFormula(2000))
	elapsed := time.Since(start)
	if ok {
		t.Fatal("cancelled query must answer false")
	}
	if !p.Cancelled() {
		t.Fatalf("prover trip = %q, want cancellation", p.trip)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancelled query took %v; the cancel was not prompt", elapsed)
	}
}

// TestDeadlineTripsWithinEnvelope: a check deadline interrupts a slowed
// query mid-proof and latches the deadline stop.
func TestDeadlineTripsWithinEnvelope(t *testing.T) {
	restore := faults.Activate(faults.NewPlan(faults.Fault{
		Point: faults.SolverStep, Kind: faults.Delay, Repeat: true, Sleep: time.Millisecond,
	}))
	defer restore()

	p := New()
	p.Ctl = NewCtl(nil, time.Now().Add(15*time.Millisecond), 0)
	start := time.Now()
	if p.Valid(chainFormula(2000)) {
		t.Fatal("deadline-tripped query must answer false")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline overrun: query took %v", elapsed)
	}
	if got := p.ResourceStop(); got != StopDeadline {
		t.Fatalf("ResourceStop() = %q, want %q", got, StopDeadline)
	}
	if p.Ctl.DeadlineHits() != 1 {
		t.Errorf("DeadlineHits() = %d, want 1", p.Ctl.DeadlineHits())
	}
}
