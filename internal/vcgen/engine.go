// Package vcgen implements Phase 5 of the safety-checking analysis:
// verification of the global safety preconditions (Section 5.2). It
// generates verification conditions by back-substituting each condition
// through the program — demand-driven, one condition at a time — using
// weakest liberal preconditions, and discharges them with the
// linear-constraint prover. Loops are crossed by synthesizing invariants
// with the induction-iteration method; procedure calls are walked through
// as if inlined; trusted host calls apply their specified
// postconditions. Back-substitution over acyclic regions proceeds in
// backwards topological order with simplification at junction points to
// control formula growth (Section 5.2.1).
package vcgen

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"mcsafe/internal/annotate"
	"mcsafe/internal/cfg"
	"mcsafe/internal/expr"
	"mcsafe/internal/induction"
	"mcsafe/internal/isa"
	"mcsafe/internal/obs"
	"mcsafe/internal/propagate"
	"mcsafe/internal/solver"
)

// Options configures the engine.
type Options struct {
	Induction induction.Options
	// Parallelism is the number of pool workers Prove uses to discharge
	// condition chunks (0 means GOMAXPROCS). Worker 0 runs on the
	// calling goroutine, so 1 starts no goroutine. Results are written
	// by index, and the one memo table the workers share holds
	// loop-entry verdicts, each the same whichever worker proves it, so
	// verdicts and their ordering do not depend on the worker count
	// (see pool.go).
	Parallelism int
	// CondTimeout bounds each condition's proof wall clock (0 = none).
	// A condition whose proof exceeds it is abandoned with a
	// resource-coded verdict; the rest of the check continues with a
	// fresh timeout per condition.
	CondTimeout time.Duration
}

// Stats reports verification effort.
type Stats struct {
	Conditions    int
	Proved        int
	InductionRuns int
	// CacheLookups and CacheHits count the lookups into the memo
	// (loop-entry verdicts and crossing invariants) and the hits that
	// verified against the stored context.
	CacheLookups int
	CacheHits    int
	// InductionIters and InductionCands total the candidate chains
	// examined and candidate formulas generated across all invariant
	// syntheses (induction.Stats, summed).
	InductionIters int
	InductionCands int
}

// Add adds o's counts to s.
func (s *Stats) Add(o Stats) {
	s.Conditions += o.Conditions
	s.Proved += o.Proved
	s.InductionRuns += o.InductionRuns
	s.CacheLookups += o.CacheLookups
	s.CacheHits += o.CacheHits
	s.InductionIters += o.InductionIters
	s.InductionCands += o.InductionCands
}

// Attempt records one proof attempt on a condition, for explainable
// verdicts: the strategy tried, the formula it posed, the WLP the
// back-substitution produced for it, and whether the prover succeeded.
type Attempt struct {
	// Kind is "group" (the bounds-group conjunction), "facts" (Facts → F
	// as one validity query at the node, without back-substitution),
	// "with-facts" (assuming the typestate assertions), or "bare" (the
	// predicate alone). A condition whose facts mention a variable of
	// its predicate tries facts, with-facts, then bare; any other tries
	// bare, then with-facts when it has facts.
	Kind    string `json:"kind"`
	Formula string `json:"formula,omitempty"`
	// WLP is the weakest-precondition formula the attempt reduced to —
	// at the enclosing loop's entry for loop conditions, at the
	// procedure entry otherwise ("" when the verdict came from a cache).
	WLP    string `json:"wlp,omitempty"`
	Proved bool   `json:"proved"`
}

// CondResult is the verdict for one global safety condition.
type CondResult struct {
	Cond   *annotate.GlobalCond
	Proved bool
	Detail string
	// Resource marks a condition left unproven because the resource
	// envelope (deadline, step budget, per-condition timeout) was
	// exhausted rather than because the proof failed on the merits. The
	// core charges such violations the "resource" code.
	Resource bool
	// Span is the condition's span in the observer's trace (0 when not
	// observing).
	Span obs.SpanID
	// Attempts is the verdict path: every proof strategy tried, in
	// order, ending with the one that succeeded (or all failures).
	Attempts []Attempt
}

// Engine proves global safety conditions.
type Engine struct {
	Res   *propagate.Result
	P     *solver.Prover
	Opts  Options
	Stats Stats
	// Obs, when non-nil, records condition/induction spans. Like the
	// prover's observer it is single-owner: the goroutine running this
	// engine. The pool gives each worker engine a forked Worker.
	Obs *obs.Worker

	// wlpCapture, when non-nil, receives the first back-substituted
	// entry formula computed under the current proof attempt (the "WLP"
	// of explainable verdicts).
	wlpCapture *expr.Formula

	g *cfg.Graph
	// rm and conv are the checked program's register model and calling
	// convention (from its architecture); wlp rendering and clobber
	// modeling go through them.
	rm    *isa.RegModel
	conv  *isa.Convention
	fresh int
	// entries and crossings are the memo (memo.go). entries holds
	// loop-entry verdicts, one table per check that every worker engine
	// of a pool shares with its coordinator: a verdict on (header, w) is
	// a fact whichever engine proves it. crossings holds crossing
	// invariants and stays per engine: an invariant carries the minting
	// engine's fresh-variable names, which another engine could
	// independently re-mint with a different meaning (capture).
	entries   *memo[bool]
	crossings *memo[expr.Formula]
	// entryActive breaks recursion cycles between loop crossings and
	// their entry checks (a cycle answers false: conservative). cuts
	// counts the cycles it has broken, so the memo can tell a result
	// that leaned on one (see storable).
	entryActive map[expr.FP]bool
	cuts        int
}

// New builds an engine over propagation results.
func New(res *propagate.Result, p *solver.Prover, opts Options) *Engine {
	arch := res.G.Prog.Arch
	return &Engine{Res: res, P: p, Opts: opts, g: res.G,
		rm:          arch.Regs(),
		conv:        arch.Conv(),
		entries:     newMemo[bool](),
		crossings:   newMemo[expr.Formula](),
		entryActive: make(map[expr.FP]bool)}
}

// Prove verifies every global condition, returning per-condition
// verdicts in the order the conditions were given. Conditions are
// partitioned into groups of comparable constituents — the bounds checks
// of one memory access — and each group is first attempted as a single
// conjunction (the formula-grouping enhancement of Section 5.2.1: the
// lower bound's invariant protects the upper bound's impossible paths
// and vice versa), falling back to individual proofs so that a single
// violation does not mask the rest.
//
// The conditions are discharged by the worker pool of pool.go, with
// Opts.Parallelism workers.
func (e *Engine) Prove(conds []*annotate.GlobalCond) []CondResult {
	out, _ := e.ProveContext(context.Background(), conds)
	return out
}

// condGroup is one bounds group: the indexes (into the conds slice) of
// the comparable conditions at a (node, position) pair, in input order.
type condGroup struct {
	node    int
	after   bool
	members []int
}

// boundsGroups partitions the bounds conditions per (node, position) and
// returns the groups with at least two members, ordered by node and
// before/after position. The result is a deterministic function of the
// input.
func boundsGroups(conds []*annotate.GlobalCond) []condGroup {
	type groupKey struct {
		node  int
		after bool
	}
	byKey := map[groupKey][]int{}
	for i, c := range conds {
		if strings.Contains(c.Desc, "bound") {
			k := groupKey{c.Node, c.AfterNode}
			byKey[k] = append(byKey[k], i)
		}
	}
	var out []condGroup
	for k, members := range byKey {
		if len(members) < 2 {
			continue
		}
		out = append(out, condGroup{node: k.node, after: k.after, members: members})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].node != out[j].node {
			return out[i].node < out[j].node
		}
		return !out[i].after && out[j].after
	})
	return out
}

// proveGroup attempts a bounds group as a single conjunction, in a
// per-condition window of its own.
func (e *Engine) proveGroup(conds []*annotate.GlobalCond, g condGroup) bool {
	e.beginCond()
	fs := make([]expr.Formula, len(g.members))
	for i, idx := range g.members {
		fs[i] = conds[idx].F
	}
	conj := expr.Simplify(expr.Conj(fs...))
	return e.proveAt(g.node, g.after, conj)
}

// beginCond opens a fresh per-condition deadline when a timeout is set.
// A previous condition's timeout trip is cleared so one pathological
// condition does not poison the rest.
func (e *Engine) beginCond() {
	if e.Opts.CondTimeout > 0 {
		e.P.BeginCond(time.Now().Add(e.Opts.CondTimeout))
	}
}

// proveCond discharges one condition. groupProved short-circuits the
// proof when the condition's bounds group already succeeded as a
// conjunction. Every strategy tried is recorded as an Attempt, and the
// whole proof runs under a "cond" span when observing.
func (e *Engine) proveCond(c *annotate.GlobalCond, groupProved bool) CondResult {
	r := CondResult{Cond: c}
	r.Span = e.Obs.Begin("cond", c.Desc)
	e.beginCond()
	attempt := func(kind string, f expr.Formula) bool {
		f = expr.Simplify(f)
		var wlp expr.Formula
		e.wlpCapture = &wlp
		ok := e.proveAt(c.Node, c.AfterNode, f)
		e.wlpCapture = nil
		at := Attempt{Kind: kind, Formula: e.P.Intern.StringOf(f), Proved: ok}
		if wlp != nil {
			at.WLP = e.P.Intern.StringOf(wlp)
		}
		r.Attempts = append(r.Attempts, at)
		return ok
	}
	r.Proved = groupProved
	if groupProved {
		r.Attempts = append(r.Attempts, Attempt{Kind: "group", Proved: true})
	} else if reason := e.P.ResourceStop(); reason != "" {
		// The check-wide envelope (deadline or step budget) is already
		// exhausted: record a conservative resource verdict without
		// spending further work, so the whole check drains promptly.
		r.Resource = true
		r.Detail = "not attempted: " + reason
	} else {
		withFacts := func() bool { return attempt("with-facts", expr.Implies(c.Facts, c.F)) }
		if _, noFacts := c.Facts.(expr.TrueF); noFacts {
			r.Proved = attempt("bare", c.F)
		} else if factsMention(c) {
			// The facts describe the checked pointer itself (null,
			// alignment and alias checks): they usually imply F outright,
			// and a bare search on such a condition seldom decides it.
			r.Proved = e.factsAttempt(c, &r) || withFacts() || attempt("bare", c.F)
		} else {
			// Facts about other values (bounds checks on an index): the
			// bare predicate first, since fact-free formulas keep the
			// invariant chains clean; fall back to assuming the facts.
			r.Proved = attempt("bare", c.F) || withFacts()
		}
		if !r.Proved {
			if reason := e.P.ResourceStop(); reason != "" {
				// The proof was interrupted mid-attempt: the verdict is
				// "unproven for lack of budget", not a refutation.
				r.Resource = true
				r.Detail = "unproven: " + reason
			}
		}
	}
	e.Stats.Conditions++
	if r.Proved {
		e.Stats.Proved++
	} else if r.Detail == "" {
		r.Detail = "cannot establish " + e.P.Intern.StringOf(c.F)
	}
	e.Obs.End("code", c.Code, "proved", fmt.Sprint(r.Proved))
	return r
}

// factsMention reports whether c's facts mention a free variable of its
// predicate.
func factsMention(c *annotate.GlobalCond) bool {
	for _, v := range expr.FreeVarsOf(c.F) {
		if expr.Occurs(c.Facts, v) {
			return true
		}
	}
	return false
}

// factsAttempt tests Facts → F as one validity query, with no
// back-substitution, and records it as the "facts" attempt. It is sound
// wherever the with-facts attempt is: that attempt proves that Facts → F
// holds at the condition's point, which a valid Facts → F does at every
// point, so a pass here claims nothing the with-facts attempt would not.
func (e *Engine) factsAttempt(c *annotate.GlobalCond, r *CondResult) bool {
	f := expr.Simplify(expr.Implies(c.Facts, c.F))
	ok := !e.stopped() && e.P.Valid(f)
	r.Attempts = append(r.Attempts, Attempt{Kind: "facts", Formula: e.P.Intern.StringOf(f), Proved: ok})
	return ok
}

// stopped reports whether the prover has tripped (resource exhaustion
// or cancellation): further proof work is pointless and would only
// delay draining the check.
func (e *Engine) stopped() bool { return e.P.Stopped() }

// storable reports whether a result computed since the engine's cut
// counter read cuts may be memoized. The memo must hold only
// context-free results on the merits, so two kinds are never stored:
//   - a result reached after the prover tripped is conservative but
//     budget-dependent, not a fact about the formula;
//   - a result reached after a loop-entry cycle cut (entryActive) fired
//     during its computation leaned on a false answer for a query that
//     was only open because of the enclosing proof, so it depends on
//     that proof.
func (e *Engine) storable(cuts int) bool {
	return !e.stopped() && e.cuts == cuts
}

// point context: a formula required before a node, in all executions.

// simplify applies syntactic simplification plus quantifier pruning (a
// sound strengthening; see solver.PruneQuant). Quantifier-free
// formulas skip the pruning pass and the re-simplification of its
// output — Simplify is idempotent, so both would be identities.
func (e *Engine) simplify(f expr.Formula) expr.Formula {
	s := expr.Simplify(f)
	if expr.QuantFree(s) {
		return s
	}
	return expr.Simplify(e.P.PruneQuant(s))
}

// captureWLP hands the first back-substituted entry formula of the
// current proof attempt to the explain machinery (first write wins: the
// top-level query's formula, not a recursive call-site check's).
func (e *Engine) captureWLP(g expr.Formula) {
	if e.wlpCapture != nil && *e.wlpCapture == nil {
		*e.wlpCapture = g
	}
}

// synthesize runs one invariant synthesis under an "induction" span,
// starting from the W(0) that w0 computes inside the span, and folds
// the search-effort stats into the engine's totals.
func (e *Engine) synthesize(what string, hooks induction.Hooks, w0 func() expr.Formula) (*induction.Result, bool) {
	if e.stopped() {
		// The envelope is gone: skip the search entirely (the caller
		// degrades to "not proved", which is conservative).
		return &induction.Result{}, false
	}
	e.Stats.InductionRuns++
	e.Obs.Begin("induction", what)
	hooks.W0 = w0()
	res, ok := induction.Synthesize(e.P, hooks, e.Opts.Induction)
	e.Stats.InductionIters += res.Stats.Iterations
	e.Stats.InductionCands += res.Stats.Candidates
	e.Obs.End("iters", fmt.Sprint(res.Stats.Iterations), "ok", fmt.Sprint(ok))
	return res, ok
}

// proveAt proves that f holds before (or after) node in every execution.
func (e *Engine) proveAt(node int, after bool, f expr.Formula) bool {
	if e.stopped() {
		return false
	}
	if after {
		f = e.wlpInsn(node, f)
	}
	f = e.simplify(f)
	if _, isTrue := f.(expr.TrueF); isTrue {
		return true
	}
	if l := e.g.InnermostLoop(node); l != nil {
		return e.proveInLoop(l, node, f)
	}
	proc := e.g.ProcOf(node)
	g := e.passRegion(region{proc: proc}, map[int]expr.Formula{node: f}, nil, nil, expr.T())
	e.captureWLP(g)
	return e.proveAtProcEntry(proc, g)
}

// proveInLoop runs induction iteration for a condition at a node inside a
// natural loop (Section 5.2.2's worked example).
func (e *Engine) proveInLoop(l *cfg.Loop, node int, f expr.Formula) bool {
	reg := region{proc: e.g.ProcOf(node), loop: l}
	return e.synthesizeAt("in-loop", l, func() expr.Formula {
		g := e.passRegion(reg, map[int]expr.Formula{node: f}, nil, nil, expr.T())
		e.captureWLP(g)
		return g
	})
}

// synthesizeAt synthesizes an invariant of loop l that holds on entry to
// l, starting from the W(0) that w0 computes.
func (e *Engine) synthesizeAt(what string, l *cfg.Loop, w0 func() expr.Formula) bool {
	reg := region{proc: e.g.ProcOf(l.Header), loop: l}
	hooks := induction.Hooks{
		Next: func(back expr.Formula) expr.Formula {
			return e.passRegion(reg, nil, nil, nil, back)
		},
		OnEntry: func(w expr.Formula) bool {
			return e.proveAtLoopEntry(l, w)
		},
		ModifiedVars: e.modifiedVars(l),
	}
	_, ok := e.synthesize(what, hooks, w0)
	return ok
}

// proveAtLoopEntry proves that w holds at the loop's header whenever the
// loop is entered from outside.
func (e *Engine) proveAtLoopEntry(l *cfg.Loop, w expr.Formula) bool {
	w = expr.Simplify(w)
	if _, isTrue := w.(expr.TrueF); isTrue {
		return true
	}
	if e.stopped() {
		return false
	}
	return memoized(e, e.entries, entryCtx(l, w), func(key expr.FP) bool {
		if e.entryActive[key] {
			e.cuts++
			return false
		}
		e.entryActive[key] = true
		v := e.proveAtLoopEntryUncached(l, w)
		delete(e.entryActive, key)
		return v
	})
}

// entryCtx is the memo context of a loop-entry proof of w at l.
func entryCtx(l *cfg.Loop, w expr.Formula) memoCtx {
	return memoCtx{ids: []int{l.Header}, fs: []expr.Formula{w}}
}

func (e *Engine) proveAtLoopEntryUncached(l *cfg.Loop, w expr.Formula) bool {
	proc := e.g.ProcOf(l.Header)
	entryTargets := map[*cfg.Loop]expr.Formula{l: w}
	if l.Parent == nil {
		g := e.passRegion(region{proc: proc}, nil, entryTargets, nil, expr.T())
		return e.proveAtProcEntry(proc, g)
	}
	// The loop entry lies inside the parent loop: synthesize at the
	// parent level (the nested-loop enhancement of Section 5.2.1).
	reg := region{proc: proc, loop: l.Parent}
	return e.synthesizeAt("loop-entry", l.Parent, func() expr.Formula {
		return e.passRegion(reg, nil, entryTargets, nil, expr.T())
	})
}

// proveAtProcEntry discharges a formula required at a procedure's entry:
// against the initial annotations for the program's entry procedure, and
// at every call site otherwise (Section 5.2.1: "when we reach the entry
// of a procedure, we check that the conditions are true at each
// call site").
func (e *Engine) proveAtProcEntry(proc *cfg.Proc, g expr.Formula) bool {
	g = expr.Simplify(g)
	if _, isTrue := g.(expr.TrueF); isTrue {
		return true
	}
	if proc.Index == e.g.EntryProc {
		return e.P.Valid(expr.Implies(e.Res.Ini.Constraints, g))
	}
	sites := e.sitesCalling(proc.Index)
	if len(sites) == 0 {
		// Never called: vacuously true.
		return true
	}
	if len(sites) == 1 {
		return e.proveAt(sites[0].DelayNode, true, g)
	}
	// With several call sites, a requirement that fails on the first
	// execution of one call is refuted there without synthesizing an
	// invariant: test that at every site before proving any. The test
	// computes W(0) at each site inside a loop, and that site's
	// synthesis starts from it.
	w0s := make([]expr.Formula, len(sites))
	for i, site := range sites {
		w0, refuted := e.entryRefutes(site, g)
		if refuted {
			return false
		}
		w0s[i] = w0
	}
	for i, site := range sites {
		var ok bool
		if w0 := w0s[i]; w0 != nil {
			ok = e.synthesizeAt("in-loop", e.g.InnermostLoop(site.DelayNode), func() expr.Formula { return w0 })
		} else {
			ok = e.proveAt(site.DelayNode, true, g)
		}
		if !ok {
			return false
		}
	}
	return true
}

// entryRefutes reports whether g, required just after a call site's
// delay node, already fails on the loop iteration that first reaches the
// call: carried back to the header of the loop around the site, it is
// neither valid nor provable on entry to the loop. That is the first
// test the site's invariant synthesis makes (induction.Synthesize's
// Inv.0 on W(0)), so a refutation here means proveAt(site, g) is false.
// It also returns that W(0), the one the site's synthesis starts from,
// or nil, and no refutation, for a site outside any loop or once the
// prover has stopped.
func (e *Engine) entryRefutes(site *cfg.CallSite, g expr.Formula) (w0 expr.Formula, refuted bool) {
	node := site.DelayNode
	l := e.g.InnermostLoop(node)
	if l == nil || e.stopped() {
		return nil, false
	}
	f := e.simplify(e.wlpInsn(node, g))
	if _, isTrue := f.(expr.TrueF); isTrue {
		return f, false
	}
	reg := region{proc: e.g.ProcOf(node), loop: l}
	w0 = expr.Simplify(e.passRegion(reg, map[int]expr.Formula{node: f}, nil, nil, expr.T()))
	if _, isTrue := w0.(expr.TrueF); isTrue || e.P.Valid(w0) {
		return w0, false
	}
	return w0, !e.proveAtLoopEntry(l, w0)
}

func (e *Engine) sitesCalling(procIdx int) []*cfg.CallSite {
	var out []*cfg.CallSite
	for _, s := range e.g.Sites {
		if s.Callee == procIdx {
			out = append(out, s)
		}
	}
	return out
}

// maxFormulaSize bounds per-point formulas during back-substitution.
const maxFormulaSize = 20000

// liveSet computes, for a whole-procedure pass, the nodes from which a
// requirement source is reachable in the intraprocedural view: the
// target nodes themselves and the headers of child loops carrying
// loop-entry targets. A node outside this set can only ever contribute
// the trivial requirement true — every continuation it sees is true and
// wlp preserves it — so the pass may skip it without changing the entry
// formula. This is what keeps back-substitution demand-driven at scale:
// the cost of a condition is the size of its backward slice, not of the
// whole procedure (large generated programs are near-linear instead of
// quadratic, and unrelated loops are no longer crossed — and their
// invariants no longer synthesized — just to carry true around).
func (e *Engine) liveSet(proc *cfg.Proc, targets map[int]expr.Formula, loopEntryTargets map[*cfg.Loop]expr.Formula) map[int]bool {
	live := make(map[int]bool, len(targets)+8)
	var queue []int
	add := func(id int) {
		if e.g.Nodes[id].Proc == proc.Index && !live[id] {
			live[id] = true
			queue = append(queue, id)
		}
	}
	for id := range targets {
		add(id)
	}
	for l := range loopEntryTargets {
		add(l.Header)
	}
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, edge := range e.g.IntraPreds(id) {
			add(edge.To)
		}
	}
	return live
}

// region identifies a back-substitution region: a whole procedure body
// (loop == nil) or one natural loop.
type region struct {
	proc *cfg.Proc
	loop *cfg.Loop
}

func (r region) contains(g *cfg.Graph, id int) bool {
	if g.Nodes[id].Proc != r.proc.Index {
		return false
	}
	if r.loop != nil {
		return r.loop.Contains(id)
	}
	return true
}

// passRegion back-substitutes over one region in backwards topological
// order, returning the formula required at the region's entry (the
// procedure entry, or the loop header when entered from outside).
//
//   - targets: formulas required before given nodes;
//   - loopEntryTargets: formulas required on entry to given child loops;
//   - exitCont: continuation formulas for edges leaving the region (nil
//     means no requirement, i.e. true) — used when the region is an
//     inner loop crossed during an enclosing pass;
//   - back: the contribution of the region's back edges (loops only).
func (e *Engine) passRegion(
	r region,
	targets map[int]expr.Formula,
	loopEntryTargets map[*cfg.Loop]expr.Formula,
	exitCont func(to int) expr.Formula,
	back expr.Formula,
) expr.Formula {
	A := map[int]expr.Formula{}
	entryOf := map[*cfg.Loop]expr.Formula{}

	// Whole-procedure passes are pruned to the backward slice of the
	// requirement sources; loop regions are left alone (a natural loop's
	// body is strongly connected through its header, so nothing could be
	// skipped), as are passes with exit continuations (any exit may carry
	// a requirement).
	var live map[int]bool
	if r.loop == nil && exitCont == nil && (len(targets) > 0 || len(loopEntryTargets) > 0) {
		live = e.liveSet(r.proc, targets, loopEntryTargets)
	}

	// contFor yields the formula required at the point just before y,
	// as seen from an edge x->y inside the region.
	var contFor func(y int) expr.Formula
	contFor = func(y int) expr.Formula {
		if r.loop != nil && y == r.loop.Header {
			return back
		}
		if !r.contains(e.g, y) {
			if exitCont != nil {
				return exitCont(y)
			}
			return expr.T()
		}
		// Child loop?
		inner := e.g.InnermostLoop(y)
		if inner != nil && inner != r.loop {
			c := e.childLoopOf(r, inner)
			if c != nil {
				if f, ok := entryOf[c]; ok {
					return f
				}
				f := e.crossLoopEntry(r, c, targets, loopEntryTargets, exitCont, back, contFor)
				entryOf[c] = f
				return f
			}
		}
		if f, ok := A[y]; ok {
			return f
		}
		return expr.T()
	}

	// Process the procedure's RPO in reverse; skip nodes outside the
	// region or inside child loops (they are crossed as a unit).
	rpo := r.proc.RPO
	var entryFormula expr.Formula = expr.T()
	for i := len(rpo) - 1; i >= 0; i-- {
		x := rpo[i]
		if !r.contains(e.g, x) {
			continue
		}
		if inner := e.g.InnermostLoop(x); inner != nil && inner != r.loop {
			continue // member of a child loop
		}
		if live != nil && !live[x] {
			continue // cannot reach a requirement source: contributes true
		}
		after := e.succFormula(x, contFor)
		f := e.wlpInsn(x, after)
		if t, ok := targets[x]; ok {
			f = expr.Conj(t, f)
		}
		f = e.simplify(f)
		if expr.Size(f) > maxFormulaSize {
			// Conservative safety valve against formula blow-up: a
			// stronger (false) requirement can only make the proof
			// fail, never accept an unsafe program.
			f = expr.F()
		}
		A[x] = f
	}

	if r.loop != nil {
		// The header is always a direct member of its own loop.
		if f, ok := A[r.loop.Header]; ok {
			return f
		}
		return expr.T()
	}
	// The procedure entry may itself sit inside a loop (a loop starting
	// at the first instruction); contFor handles both cases.
	entryFormula = contFor(r.proc.Entry)
	return entryFormula
}

// succFormula combines the successor contributions of node x into the
// formula required just after x executes. When both legs of a
// conditional branch require the same formula, the guard is dropped —
// the junction-point simplification that keeps formulas from doubling
// at every branch (Section 5.2.1, fifth enhancement).
func (e *Engine) succFormula(x int, contFor func(int) expr.Formula) expr.Formula {
	node := e.g.Nodes[x]
	type leg struct {
		guard, cont expr.Formula
	}
	var legs []leg
	for _, edge := range e.g.IntraSuccs(x) {
		var cont expr.Formula
		if edge.Kind == cfg.EdgeSummary {
			site := e.g.Sites[edge.Site]
			retCont := contFor(edge.To)
			if site.TrustedName != "" {
				cont = e.crossTrusted(site, retCont)
			} else {
				cont = e.crossCallee(site, retCont)
			}
		} else {
			cont = contFor(edge.To)
		}
		legs = append(legs, leg{guard: e.edgeGuard(node, edge), cont: cont})
	}
	if len(legs) == 2 {
		if _, g0True := legs[0].guard.(expr.TrueF); !g0True {
			if expr.Equal(legs[0].cont, legs[1].cont) {
				return legs[0].cont
			}
		}
	}
	terms := make([]expr.Formula, len(legs))
	for i, l := range legs {
		terms[i] = expr.Implies(l.guard, l.cont)
	}
	return expr.Conj(terms...)
}

// childLoopOf walks up from an innermost loop to the direct child of the
// region.
func (e *Engine) childLoopOf(r region, inner *cfg.Loop) *cfg.Loop {
	c := inner
	for c != nil && c.Parent != r.loop {
		c = c.Parent
	}
	return c
}

// crossLoopEntry computes the formula required on entry to child loop c:
// either an explicit loop-entry target, or the invariant synthesized to
// carry the continuation formulas across the loop (the inner-loop
// treatment of Section 5.2.1).
func (e *Engine) crossLoopEntry(
	r region,
	c *cfg.Loop,
	targets map[int]expr.Formula,
	loopEntryTargets map[*cfg.Loop]expr.Formula,
	exitCont func(int) expr.Formula,
	back expr.Formula,
	outerCont func(int) expr.Formula,
) expr.Formula {
	if f, ok := loopEntryTargets[c]; ok {
		// Entering c is itself the target; requirements beyond do not
		// constrain this query.
		return f
	}
	// Are there any targets inside c? (They would have been the
	// proveInLoop case; during crossing we only carry continuations.)
	inner := region{proc: r.proc, loop: c}
	// Materialize the exit continuations so the crossing can be
	// memoized: identical continuations (common across chain iterations
	// of the enclosing synthesis) reuse the synthesized invariant.
	exitVals := map[int]expr.Formula{}
	for _, x := range c.Exits {
		if _, ok := exitVals[x.To]; !ok {
			exitVals[x.To] = outerCont(x.To)
		}
	}
	byHeader := make(map[int]expr.Formula, len(loopEntryTargets))
	for l2, f := range loopEntryTargets {
		byHeader[l2.Header] = f
	}
	ctx := memoCtx{ids: []int{c.Header}}
	ctx.add(exitVals)
	ctx.add(targets)
	ctx.add(byHeader)
	return memoized(e, e.crossings, ctx, func(expr.FP) expr.Formula {
		exitFn := func(to int) expr.Formula {
			if f, ok := exitVals[to]; ok {
				return f
			}
			// An exit of c lands back in the outer region (or beyond).
			return outerCont(to)
		}
		pass := func(b expr.Formula) expr.Formula {
			return e.passRegion(inner, targets, loopEntryTargets, exitFn, b)
		}
		hooks := induction.Hooks{Next: pass, ModifiedVars: e.modifiedVars(c)}
		res, ok := e.synthesize("cross", hooks, func() expr.Formula { return pass(expr.T()) })
		if !ok {
			return expr.F()
		}
		return res.Invariant
	})
}
