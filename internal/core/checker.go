// Package core is the five-phase safety-checking driver (Section 3):
// preparation, typestate propagation, annotation, local verification, and
// global verification. It reports either that the untrusted machine code
// meets the safety conditions, or the places where they are violated,
// together with the per-phase timing and program statistics the paper's
// Figure 9 tabulates.
package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"mcsafe/internal/annotate"
	"mcsafe/internal/cfg"
	"mcsafe/internal/expr"
	"mcsafe/internal/induction"
	"mcsafe/internal/isa"
	"mcsafe/internal/obs"
	"mcsafe/internal/policy"
	"mcsafe/internal/propagate"
	"mcsafe/internal/solver"
	"mcsafe/internal/vcgen"
)

// PhaseTimes mirrors the timing rows of Figure 9.
type PhaseTimes struct {
	// Typestate is Phase 2 (typestate propagation).
	Typestate time.Duration `json:"typestate_ns"`
	// AnnotLocal is Phases 3 and 4 (annotation + local verification),
	// reported together as in Figure 9.
	AnnotLocal time.Duration `json:"annot_local_ns"`
	// Global is Phase 5 (global verification).
	Global time.Duration `json:"global_ns"`
	// Total is the whole analysis, including Phase 1 (preparation).
	Total time.Duration `json:"total_ns"`
}

// Stats mirrors the characteristics rows of Figure 9.
type Stats struct {
	Instructions int `json:"instructions"`
	Branches     int `json:"branches"`
	Loops        int `json:"loops"`
	InnerLoops   int `json:"inner_loops"`
	Calls        int `json:"calls"`
	TrustedCalls int `json:"trusted_calls"`
	GlobalConds  int `json:"global_conds"`
	// Extra effort counters (not in the paper's table).
	PropagationSteps int `json:"propagation_steps"`
	ProverQueries    int `json:"prover_queries"`
	InductionRuns    int `json:"induction_runs"`
}

// Violation is one place where a safety condition is violated (or cannot
// be proved to hold, which the checker treats identically).
type Violation struct {
	// Node is the CFG node; Index the instruction index; Line the
	// source line when the program carries a source map.
	Node  int `json:"node"`
	Index int `json:"index"`
	Line  int `json:"line,omitempty"`
	// Phase is "local" or "global".
	Phase string `json:"phase"`
	// Code is the stable machine-readable classification (one of the
	// annotate.Code* constants: oob, align, uninit, nullptr, stack,
	// policy, precond). Tools should match on Code, never on Desc.
	Code string `json:"code"`
	Desc string `json:"desc"`
	// Cond indexes the failed condition in Result.Conds for global
	// violations; -1 for local ones.
	Cond int `json:"cond"`
	// Span is the failed condition's span in the observer's trace
	// (0 when the check ran unobserved or the violation is local).
	Span obs.SpanID `json:"span,omitempty"`
}

func (v Violation) String() string {
	where := fmt.Sprintf("instruction %d", v.Index)
	if v.Line > 0 {
		where = fmt.Sprintf("line %d", v.Line)
	}
	return fmt.Sprintf("%s: %s safety violation [%s]: %s", where, v.Phase, v.Code, v.Desc)
}

// Options configures a check.
type Options struct {
	// Induction configures the invariant synthesizer (ablations).
	Induction induction.Options
	// Parallelism is the worker count for Phase 5 (global
	// verification): 0 means GOMAXPROCS, and 1 proves every chunk on
	// the calling goroutine. Verdicts, violation lists, and their
	// ordering are identical at every setting; only wall-clock time
	// changes.
	Parallelism int
	// Budget is the check's resource envelope (deadline, solver step
	// budget, per-condition timeout). The zero Budget disables
	// governance; see the Budget type for the fail-closed semantics.
	Budget Budget
	// Obs, when non-nil, receives the check's spans and counters. A nil
	// observer costs one pointer compare per instrumentation point.
	Obs *obs.Trace
}

// PhaseError wraps a check-interrupting error — a context cancellation
// or a contained internal fault (*InternalError) — with the phase it
// interrupted.
type PhaseError struct {
	Phase string
	Err   error
}

func (e *PhaseError) Error() string {
	return fmt.Sprintf("mcsafe: check interrupted during %s phase: %v", e.Phase, e.Err)
}

func (e *PhaseError) Unwrap() error { return e.Err }

// Result is the outcome of checking one program against one policy.
type Result struct {
	// Safe is true when every safety condition was established.
	Safe       bool        `json:"safe"`
	Violations []Violation `json:"violations,omitempty"`
	Stats      Stats       `json:"stats"`
	Times      PhaseTimes  `json:"times"`

	// Conds carries the per-condition verdicts of global verification.
	Conds []vcgen.CondResult `json:"-"`
	// Trace is the observer the check recorded into (nil when
	// unobserved).
	Trace *obs.Trace `json:"-"`
	// Prop and Ann expose the intermediate results for inspection
	// (dump tools, tests).
	Prop *propagate.Result     `json:"-"`
	Ann  *annotate.Annotations `json:"-"`
	Ini  *policy.Initial       `json:"-"`
	G    *cfg.Graph            `json:"-"`
}

// Check runs the five-phase safety-checking analysis on a program
// against a host specification.
func Check(prog *isa.Program, spec *policy.Spec, opts Options) (*Result, error) {
	return CheckContext(context.Background(), prog, spec, opts)
}

// CheckContext is Check with cancellation: the context is consulted
// between phases and, inside Phase 5, between condition chunks. On
// cancellation it returns a *PhaseError naming the phase that was
// interrupted, wrapping ctx.Err().
func CheckContext(ctx context.Context, prog *isa.Program, spec *policy.Spec, opts Options) (res *Result, err error) {
	if prog == nil || spec == nil {
		return nil, fmt.Errorf("core: nil program or spec")
	}
	if pa, sa := prog.Arch.Name(), spec.Arch.Name(); pa != sa {
		return nil, fmt.Errorf("core: program architecture %q does not match spec architecture %q", pa, sa)
	}
	t0 := time.Now()
	w := opts.Obs.Worker(0)
	w.Begin("check", "program")
	// Panic containment: a fault anywhere in the five phases rejects
	// this one program with a structured error instead of killing the
	// process (and, through CheckAll, the rest of the batch). phase
	// tracks the driver's position for the report.
	phase := "prepare"
	defer func() {
		if r := recover(); r != nil {
			w.EndAll("aborted", phase)
			w.Flush()
			res, err = nil, &PhaseError{Phase: phase, Err: &InternalError{
				Phase: phase, Program: programAddress(prog), Cond: -1,
				Panic: fmt.Sprint(r), Stack: debug.Stack(),
			}}
		}
	}()
	// abort ends the open spans and flushes before an early error
	// return, keeping the event stream balanced.
	abort := func(phase string, err error) error {
		w.End("aborted", phase)
		w.Flush()
		if ctxErr := ctx.Err(); ctxErr != nil && err == ctxErr {
			return &PhaseError{Phase: phase, Err: err}
		}
		if _, ok := err.(*InternalError); ok {
			return &PhaseError{Phase: phase, Err: err}
		}
		return err
	}

	// Phase 1: preparation.
	w.Begin("phase", "prepare")
	ini, err := policy.Prepare(spec)
	if err != nil {
		w.End()
		return nil, abort("prepare", err)
	}
	g, err := cfg.Build(prog, cfg.Options{TrustedFuncs: spec.TrustedNames()})
	if err == nil {
		_, err = propagate.BindFrames(g, spec)
	}
	if err != nil {
		w.End()
		return nil, abort("prepare", err)
	}
	w.End()

	res = &Result{Ini: ini, G: g, Trace: opts.Obs}

	// Phase 2: typestate propagation.
	phase = "typestate"
	if err := ctx.Err(); err != nil {
		return nil, abort("typestate", err)
	}
	t1 := time.Now()
	w.Begin("phase", "typestate")
	prop := propagate.Run(g, ini)
	w.End("steps", fmt.Sprint(prop.Steps))
	res.Prop = prop
	res.Times.Typestate = time.Since(t1)

	// Phases 3 and 4: annotation + local verification.
	phase = "annotate"
	if err := ctx.Err(); err != nil {
		return nil, abort("annotate", err)
	}
	t2 := time.Now()
	w.Begin("phase", "annotate")
	ann := annotate.Run(prop)
	w.End("conds", fmt.Sprint(len(ann.Conds)))
	res.Ann = ann
	res.Times.AnnotLocal = time.Since(t2)

	// Phase 5: global verification. The prover's cache is shared by the
	// provers of all the pool's workers.
	phase = "global"
	if err := ctx.Err(); err != nil {
		return nil, abort("global", err)
	}
	t3 := time.Now()
	w.Begin("phase", "global")
	prover := solver.New()
	// One intern table per check: every diagnostic stringification
	// (observer span attributes, Explain attempts) of a formula is
	// rendered once per unique term. The pool hands it to each worker.
	intern := expr.NewInterner()
	prover.Intern = intern
	// The resource governor: built only when a budget is set or the
	// context is cancellable, so an ungoverned check keeps a nil Ctl
	// and the solver's hot loops their zero-cost fast path.
	var ctl *solver.Ctl
	if opts.Budget.Enabled() || ctx.Done() != nil {
		var deadline time.Time
		if opts.Budget.Deadline > 0 {
			deadline = t0.Add(opts.Budget.Deadline)
		}
		ctl = solver.NewCtl(ctx, deadline, opts.Budget.SolverSteps)
	}
	prover.Ctl = ctl
	eng := vcgen.New(prop, prover, vcgen.Options{
		Induction:   opts.Induction,
		Parallelism: opts.Parallelism,
		CondTimeout: opts.Budget.CondTimeout,
	})
	eng.Obs = w
	conds, err := eng.ProveContext(ctx, ann.Conds)
	if err != nil {
		if pe, ok := err.(*vcgen.PanicError); ok {
			err = &InternalError{
				Phase: "global", Program: programAddress(prog),
				Cond: pe.Cond, Panic: fmt.Sprint(pe.Value), Stack: pe.Stack,
			}
		}
		w.End()
		return nil, abort("global", err)
	}
	res.Conds = conds
	w.End("conds", fmt.Sprint(len(conds)))
	res.Times.Global = time.Since(t3)
	res.Times.Total = time.Since(t0)

	// Collect violations.
	for _, v := range ann.LocalViolations {
		res.Violations = append(res.Violations, Violation{
			Node: v.Node, Index: g.Nodes[v.Node].Index,
			Line: lineOf(prog, g, v.Node), Phase: "local",
			Code: v.Code, Desc: v.Desc, Cond: -1,
		})
	}
	for i, cr := range res.Conds {
		if cr.Proved {
			continue
		}
		code := cr.Cond.Code
		if cr.Resource {
			// Unproven for lack of budget, not on the merits: charged
			// the stable "resource" code so callers can tell the two
			// rejections apart.
			code = annotate.CodeResource
		}
		res.Violations = append(res.Violations, Violation{
			Node: cr.Cond.Node, Index: g.Nodes[cr.Cond.Node].Index,
			Line: lineOf(prog, g, cr.Cond.Node), Phase: "global",
			Code: code,
			Desc: fmt.Sprintf("%s: %s", cr.Cond.Desc, cr.Detail),
			Cond: i, Span: cr.Span,
		})
	}
	sort.Slice(res.Violations, func(i, j int) bool {
		if res.Violations[i].Index != res.Violations[j].Index {
			return res.Violations[i].Index < res.Violations[j].Index
		}
		return res.Violations[i].Desc < res.Violations[j].Desc
	})
	res.Safe = len(res.Violations) == 0

	// Statistics (Figure 9 characteristics).
	res.Stats.Instructions = len(prog.Insns)
	res.Stats.Branches = g.BranchCount()
	res.Stats.Loops, res.Stats.InnerLoops = g.LoopCounts()
	res.Stats.Calls, res.Stats.TrustedCalls = g.CallCounts()
	res.Stats.GlobalConds = len(ann.Conds)
	res.Stats.PropagationSteps = prop.Steps
	res.Stats.ProverQueries = prover.Stats.ValidQueries
	res.Stats.InductionRuns = eng.Stats.InductionRuns

	// Counters: emitted once from the merged stats, so the totals are
	// race-free at any parallelism and exactly equal the Stats fields.
	typestateFacts := 0
	for _, s := range prop.In {
		typestateFacts += s.Len()
	}
	rtlEffects := 0
	for _, nd := range g.Nodes {
		if !nd.Replica {
			rtlEffects += len(nd.Insn.RTL)
		}
	}
	w.Add("solver_valid_queries", int64(prover.Stats.ValidQueries))
	w.Add("solver_cache_hits", int64(prover.Stats.CacheHits))
	w.Add("solver_eliminations", int64(prover.Stats.Eliminations))
	w.Add("solver_dnf_blowups", int64(prover.Stats.DNFBlowups))
	w.Add("fm_prefix_reuses", int64(prover.Stats.FMPrefixReuses))
	w.Add("early_unsat_prunes", int64(prover.Stats.EarlyUnsatPrunes))
	w.Add("interned_terms", intern.Terms())
	w.Add("intern_hits", intern.Hits())
	w.Add("vcgen_conditions", int64(eng.Stats.Conditions))
	w.Add("vcgen_proved", int64(eng.Stats.Proved))
	w.Add("vcgen_memo_hits", int64(eng.Stats.CacheHits))
	w.Add("vcgen_memo_lookups", int64(eng.Stats.CacheLookups))
	w.Add("induction_runs", int64(eng.Stats.InductionRuns))
	w.Add("induction_iterations", int64(eng.Stats.InductionIters))
	w.Add("induction_candidates", int64(eng.Stats.InductionCands))
	w.Add("propagate_steps", int64(prop.Steps))
	w.Add("typestate_facts", int64(typestateFacts))
	w.Add("rtl_effects", int64(rtlEffects))
	w.Add("annotate_local_checks", int64(ann.LocalChecks))
	w.Add("annotate_global_conds", int64(len(ann.Conds)))
	// Resource-governance counters: all zero (and therefore absent, by
	// Worker.Add's contract) on an ungoverned or unexhausted check, so
	// existing golden traces are unchanged.
	w.Add("budget_exhausted", ctl.BudgetHits())
	w.Add("deadline_hits", ctl.DeadlineHits())
	w.Add("cond_timeouts", ctl.CondTimeouts())
	resourceConds := 0
	for _, cr := range res.Conds {
		if cr.Resource {
			resourceConds++
		}
	}
	w.Add("resource_conds", int64(resourceConds))
	w.End("safe", fmt.Sprint(res.Safe))
	w.Flush()
	return res, nil
}

// Explain renders the verdict path of one violation: where it is, how it
// was classified, and — for global violations — every proof strategy the
// verifier tried, with the formula posed and the weakest precondition it
// reduced to. The span timing is included when the check was observed.
func (r *Result) Explain(v Violation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", v.String())
	if v.Cond < 0 || v.Cond >= len(r.Conds) {
		b.WriteString("  decided locally from typestate information; no prover query involved\n")
		return b.String()
	}
	cr := r.Conds[v.Cond]
	fmt.Fprintf(&b, "  condition #%d (%s) at node %d\n", cr.Cond.ID, cr.Cond.Desc, cr.Cond.Node)
	fmt.Fprintf(&b, "  predicate: %s\n", cr.Cond.F)
	if fs := cr.Cond.Facts.String(); fs != "true" {
		fmt.Fprintf(&b, "  typestate facts: %s\n", fs)
	}
	if cr.Resource {
		fmt.Fprintf(&b, "  resource-limited: %s (re-run with a larger budget to decide on the merits)\n", cr.Detail)
	}
	for i, a := range cr.Attempts {
		verdict := "FAILED"
		if a.Proved {
			verdict = "proved"
		}
		fmt.Fprintf(&b, "  attempt %d (%s): %s\n", i+1, a.Kind, verdict)
		if a.Formula != "" {
			fmt.Fprintf(&b, "    formula: %s\n", obs.TruncateFormula(a.Formula))
		}
		if a.WLP != "" {
			fmt.Fprintf(&b, "    wlp at entry: %s\n", obs.TruncateFormula(a.WLP))
		} else if a.Kind == "facts" {
			b.WriteString("    checked at the node, without back-substitution\n")
		}
	}
	if sp, ok := r.Trace.SpanByID(v.Span); ok {
		fmt.Fprintf(&b, "  proof time: %s (span %d)\n", sp.Dur(), sp.ID)
	}
	return b.String()
}

func lineOf(prog *isa.Program, g *cfg.Graph, node int) int {
	idx := g.Nodes[node].Index
	if idx >= 0 && idx < len(prog.SrcLines) {
		return prog.SrcLines[idx]
	}
	return 0
}
