package solver

import (
	"context"
	"sync/atomic"
	"time"

	"mcsafe/internal/faults"
)

// Stop reasons a prover can report. StopBudget, StopDeadline, and
// StopCondTimeout are resource stops: the query was abandoned
// conservatively and the condition should be charged the "resource"
// violation code. StopCancelled is a caller cancellation and surfaces
// as a *PhaseError instead.
const (
	StopBudget      = "solver step budget exhausted"
	StopDeadline    = "check deadline exceeded"
	StopCondTimeout = "per-condition timeout exceeded"
	StopCancelled   = "cancelled"
)

// Ctl is the check-wide resource governor shared by every prover of
// one check (all of a pool's worker provers).
// It carries the caller's context, the check's wall-clock deadline, and
// the shared solver step budget. All fields are either immutable after
// construction or atomic, so any number of provers on concurrent
// goroutines may consult one Ctl.
//
// A nil *Ctl disables governance entirely: the prover's hot loops then
// skip every check, and verdicts are bit-identical to an ungoverned
// run.
type Ctl struct {
	ctx      context.Context
	deadline time.Time // zero means no deadline
	hasSteps bool
	steps    atomic.Int64 // remaining step budget (valid when hasSteps)

	stop atomic.Int32 // 0 running, 1 budget exhausted, 2 deadline passed

	budgetHits   atomic.Int64
	deadlineHits atomic.Int64
	condTimeouts atomic.Int64
}

const (
	stopNone int32 = iota
	stopBudget
	stopDeadline
)

// NewCtl builds a governor. deadline is the absolute wall-clock bound
// (zero for none); steps the total solver step budget (0 for
// unlimited). ctx may be nil for context.Background().
func NewCtl(ctx context.Context, deadline time.Time, steps int64) *Ctl {
	if ctx == nil {
		ctx = context.Background()
	}
	c := &Ctl{ctx: ctx, deadline: deadline, hasSteps: steps > 0}
	c.steps.Store(steps)
	return c
}

// Ctx returns the context the governor watches.
func (c *Ctl) Ctx() context.Context {
	if c == nil {
		return context.Background()
	}
	return c.ctx
}

// spend consumes n steps from the shared budget, reporting whether the
// budget is now exhausted.
func (c *Ctl) spend(n int64) bool {
	if !c.hasSteps {
		return false
	}
	if c.steps.Add(-n) < 0 {
		if c.stop.CompareAndSwap(stopNone, stopBudget) {
			c.budgetHits.Add(1)
		}
		return true
	}
	return false
}

// checkDeadline latches the deadline stop when the wall clock has
// passed it.
func (c *Ctl) checkDeadline(now time.Time) bool {
	if c.deadline.IsZero() || now.Before(c.deadline) {
		return false
	}
	if c.stop.CompareAndSwap(stopNone, stopDeadline) {
		c.deadlineHits.Add(1)
	}
	return true
}

// ResourceStop reports why the check's resource envelope is exhausted
// ("" while it is not): the shared step budget ran out or the check
// deadline passed. It consults the wall clock, so callers outside the
// solver's tick loop (the engine's per-condition short-circuit) observe
// a passed deadline promptly.
func (c *Ctl) ResourceStop() string {
	if c == nil {
		return ""
	}
	switch c.stop.Load() {
	case stopBudget:
		return StopBudget
	case stopDeadline:
		return StopDeadline
	}
	if !c.deadline.IsZero() && c.checkDeadline(time.Now()) {
		return StopDeadline
	}
	return ""
}

// BudgetHits, DeadlineHits, and CondTimeouts are the governor's
// counters, emitted by the core as budget_exhausted, deadline_hits,
// and cond_timeouts.
func (c *Ctl) BudgetHits() int64 {
	if c == nil {
		return 0
	}
	return c.budgetHits.Load()
}

func (c *Ctl) DeadlineHits() int64 {
	if c == nil {
		return 0
	}
	return c.deadlineHits.Load()
}

func (c *Ctl) CondTimeouts() int64 {
	if c == nil {
		return 0
	}
	return c.condTimeouts.Load()
}

// StepsRemaining reports the unspent step budget (0 when unlimited).
func (c *Ctl) StepsRemaining() int64 {
	if c == nil || !c.hasSteps {
		return 0
	}
	if n := c.steps.Load(); n > 0 {
		return n
	}
	return 0
}

// slowCheckMask throttles the expensive per-tick checks (ctx.Err and
// time.Now) to every 64th tick; the step budget is charged on every
// tick.
const slowCheckMask = 63

// tick is the prover's per-unit-of-work governance hook, called from
// every hot loop (eliminations, residue-enumeration leaves, quantifier
// elimination nodes, clause folding). It reports whether the prover
// must abandon the current query: the trip reason is latched in p.trip
// and the query's answer degrades to the conservative "not proved".
//
// With no governor and no per-condition deadline armed, tick costs one
// atomic load (the fault-injection check) and two nil compares, and
// never trips — the ungoverned path is bit-identical.
func (p *Prover) tick() bool {
	faults.Fire(faults.SolverStep)
	if p.trip != "" {
		return true
	}
	c := p.Ctl
	if c == nil && p.condDeadline.IsZero() {
		return false
	}
	p.ticks++
	if c != nil && c.hasSteps && c.spend(1) {
		p.trip = StopBudget
		return true
	}
	if p.ticks&slowCheckMask != 0 {
		return false
	}
	if c != nil {
		switch c.stop.Load() {
		case stopBudget:
			p.trip = StopBudget
			return true
		case stopDeadline:
			p.trip = StopDeadline
			return true
		}
		if c.ctx.Err() != nil {
			p.trip = StopCancelled
			return true
		}
		if !c.deadline.IsZero() && c.checkDeadline(time.Now()) {
			p.trip = StopDeadline
			return true
		}
	}
	if !p.condDeadline.IsZero() && !time.Now().Before(p.condDeadline) {
		p.trip = StopCondTimeout
		if c != nil {
			c.condTimeouts.Add(1)
		}
		return true
	}
	return false
}

// BeginCond opens a new per-condition proof scope: deadline is the
// condition's wall-clock bound (zero for none). A previous condition's
// timeout trip is cleared — the timeout isolates one pathological
// condition without poisoning the rest — while check-wide trips
// (budget, deadline, cancellation) persist.
func (p *Prover) BeginCond(deadline time.Time) {
	p.condDeadline = deadline
	if p.trip == StopCondTimeout {
		p.trip = ""
	}
}

// ResourceStop reports why this prover has stopped doing real proof
// work for resource reasons ("" when it has not): its own trip, or the
// shared governor's. Cancellation is excluded — it is reported through
// the context, not the verdict.
func (p *Prover) ResourceStop() string {
	switch p.trip {
	case StopBudget, StopDeadline, StopCondTimeout:
		return p.trip
	}
	return p.Ctl.ResourceStop()
}

// Cancelled reports whether the prover tripped on caller cancellation.
func (p *Prover) Cancelled() bool { return p.trip == StopCancelled }

// Stopped reports whether the prover should stop doing proof work for
// any reason — its own trip (resource or cancellation) or the shared
// governor's exhausted envelope. Engines consult it to short-circuit
// work between queries; it is always false when ungoverned.
func (p *Prover) Stopped() bool {
	return p.trip != "" || p.Ctl.ResourceStop() != ""
}
