package mcsafe

import (
	"context"
	"fmt"

	"mcsafe/internal/core"
	"mcsafe/internal/obs"
)

// Trace is the checker's observability sink: hierarchical spans (check →
// phase → condition chunk → prover query) and named counters, rendered
// as a JSON event stream (WriteJSON) or a Prometheus-style text snapshot
// (WriteText). Pass one to a Checker with WithObserver. A single Trace
// may observe many checks, including concurrent ones.
type Trace = obs.Trace

// NewTrace returns an empty observer whose clock starts now.
func NewTrace() *Trace { return obs.New() }

// PhaseError is the error CheckContext-style entry points return when a
// check is interrupted: it names the phase that was interrupted and
// unwraps to the cause — ctx.Err() on cancellation, or an
// *InternalError when a contained fault rejected the program.
type PhaseError = core.PhaseError

// InternalError is a panic contained at a checking boundary (a driver
// phase, a proving-pool worker, or a batch item), converted into a
// structured error that rejects the one program it hit. It carries the
// phase, a fingerprint of the program, and the condition being proved.
type InternalError = core.InternalError

// Budget is the resource envelope of one check: a wall-clock deadline,
// a solver step budget, and a per-condition proof timeout. The zero
// Budget disables governance with verdicts bit-identical to an
// ungoverned run. Exhaustion is fail-closed: affected conditions are
// reported as unproven violations carrying CodeResource, never
// accepted. Pass one with WithBudget.
type Budget = core.Budget

// Violation codes: the stable machine-readable classification carried in
// Violation.Code. Tools should match on these, never on description
// text.
const (
	CodeOOB     = "oob"     // array/pointer access outside its object's bounds
	CodeAlign   = "align"   // misaligned address
	CodeUninit  = "uninit"  // use of an uninitialized or unusable value
	CodeNullPtr = "nullptr" // possible null-pointer dereference
	CodeStack   = "stack"   // stack-manipulation safety (frame size/alignment)
	CodePolicy  = "policy"  // access the host policy does not grant
	CodePrecond = "precond" // unmet trusted-call argument state or precondition
	// CodeAlias marks an address that could not be proved alias-stable on
	// an architecture whose memory subsystem may translate arithmetically
	// equal but differently computed addresses inconsistently (hardware
	// aliasing). Emitted only for such architectures (RV32I here); SPARC
	// checks never carry it.
	CodeAlias = "alias"
	// CodeResource marks a condition left unproven because the check's
	// resource envelope (Budget) was exhausted — a conservative
	// rejection, never an acceptance.
	CodeResource = "resource"
)

// Checker is the configured, reusable entry point of the analysis. Zero
// or more functional options fix its tuning once; Check may then be
// called any number of times, from any number of goroutines.
//
//	tr := mcsafe.NewTrace()
//	c := mcsafe.New(mcsafe.WithParallelism(4), mcsafe.WithObserver(tr))
//	res, err := c.Check(ctx, prog, spec)
type Checker struct {
	opts core.Options
}

// CheckerOption is one functional configuration option for New.
type CheckerOption func(*Checker)

// WithParallelism sets the worker count for global verification
// (Phase 5): 0 means GOMAXPROCS, and 1 proves on the calling goroutine.
// The verdict, violations, and their ordering are identical at every
// setting.
func WithParallelism(n int) CheckerOption {
	return func(c *Checker) { c.opts.Parallelism = n }
}

// WithObserver directs the checker's spans and counters into t. A nil t
// restores the default no-op observer.
func WithObserver(t *Trace) CheckerOption {
	return func(c *Checker) { c.opts.Obs = t }
}

// WithBudget sets the checker's resource envelope. Conditions whose
// proofs the envelope cuts short are reported as unproven violations
// with CodeResource (fail closed); a zero Budget disables governance.
func WithBudget(b Budget) CheckerOption {
	return func(c *Checker) { c.opts.Budget = b }
}

// WithMaxInductionIterations bounds the induction-iteration chains used
// to synthesize loop invariants (the paper finds 3 sufficient).
func WithMaxInductionIterations(k int) CheckerOption {
	return func(c *Checker) { c.opts.Induction.MaxIter = k }
}

// WithoutGeneralization disables the Fourier-Motzkin generalization
// enhancement of induction iteration (Section 5.2.1) — for ablations.
func WithoutGeneralization() CheckerOption {
	return func(c *Checker) { c.opts.Induction.DisableGeneralization = true }
}

// WithoutDNF disables the DNF-disjunct enhancement of induction
// iteration (Section 5.2.1) — for ablations.
func WithoutDNF() CheckerOption {
	return func(c *Checker) { c.opts.Induction.DisableDNF = true }
}

// New builds a Checker from functional options.
func New(options ...CheckerOption) *Checker {
	c := &Checker{}
	for _, o := range options {
		o(c)
	}
	return c
}

// Check runs the five-phase safety-checking analysis on one program
// against one host specification. The context is honored between phases
// and between Phase 5 condition chunks; on cancellation the error is a
// *PhaseError naming the interrupted phase and wrapping ctx.Err().
func (c *Checker) Check(ctx context.Context, prog *Program, spec *Spec) (*Result, error) {
	if prog == nil || spec == nil {
		return nil, fmt.Errorf("mcsafe: nil program or spec")
	}
	if pa, sa := prog.Arch(), spec.Arch(); pa != sa {
		return nil, fmt.Errorf("mcsafe: program architecture %q does not match spec architecture %q", pa, sa)
	}
	res, err := core.CheckContext(ctx, prog.prog, spec.spec, c.opts)
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

// CheckAll checks many program+policy pairs concurrently with a bounded
// worker pool (parallelism 0 means GOMAXPROCS), under the context. Each
// item is checked with this Checker's configuration. When the batch
// runs more than one check at a time and the Checker's Parallelism is
// 0, each item proves its Phase 5 with one worker, since the batch
// already saturates the cores. Outcomes are indexed like items.
func (c *Checker) CheckAll(ctx context.Context, items []BatchItem, parallelism int) []BatchResult {
	inner := make([]core.CheckItem, len(items))
	for i, it := range items {
		var ci core.CheckItem
		if it.Prog != nil {
			ci.Prog = it.Prog.prog
		}
		if it.Spec != nil {
			ci.Spec = it.Spec.spec
		}
		ci.Opts = c.opts
		inner[i] = ci
	}
	outcomes := core.CheckAllContext(ctx, inner, parallelism)
	out := make([]BatchResult, len(items))
	for i, oc := range outcomes {
		if oc.Err != nil {
			out[i] = BatchResult{Err: oc.Err}
			continue
		}
		out[i] = BatchResult{Result: wrapResult(oc.Result)}
	}
	return out
}

// wrapResult lifts an internal check result into the public Result.
func wrapResult(res *core.Result) *Result {
	return &Result{
		Safe:       res.Safe,
		Violations: res.Violations,
		Stats:      res.Stats,
		Times:      res.Times,
		arch:       res.G.Prog.Arch.Name(),
		inner:      res,
	}
}

// Explain renders the verdict path of one of the result's violations:
// its classification, the proof strategies the verifier tried with the
// formulas they posed and the weakest preconditions they reduced to,
// and — when the check was observed — the failed condition's span
// timing.
func (r *Result) Explain(v Violation) string {
	if r.inner == nil {
		return v.String() + "\n"
	}
	return r.inner.Explain(v)
}

// Trace returns the observer the check recorded into (nil when the
// check ran without one).
func (r *Result) Trace() *Trace {
	if r.inner == nil {
		return nil
	}
	return r.inner.Trace
}
