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
	"runtime"
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
	// Parallelism is the number of workers Prove uses to discharge
	// condition groups: 0 means GOMAXPROCS, 1 the exact sequential
	// legacy path. Work items are independent, results are written by
	// index, and per-item engines start from identical scratch state,
	// so verdicts and ordering do not depend on the worker count.
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
	CacheHits     int
	// InductionIters and InductionCands total the candidate chains
	// examined and candidate formulas generated across all invariant
	// syntheses (induction.Stats, summed).
	InductionIters int
	InductionCands int
}

// Attempt records one proof attempt on a condition, for explainable
// verdicts: the strategy tried, the formula it posed, the WLP the
// back-substitution produced for it, and whether the prover succeeded.
type Attempt struct {
	// Kind is "group" (the bounds-group conjunction), "bare" (the
	// predicate alone), or "with-facts" (assuming the typestate
	// assertions).
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
	wlpCapture *string

	g *cfg.Graph
	// rm and conv are the checked program's register model and calling
	// convention (from its architecture); wlp rendering and clobber
	// modeling go through them.
	rm    *isa.RegModel
	conv  *isa.Convention
	fresh int
	// cache and entryCache are fingerprint-keyed verdict caches (the
	// same verified-hit ShardedCache the pool shares, used privately
	// here); crossCache maps a crossing's composite fingerprint to its
	// synthesized invariant.
	cache      *solver.ShardedCache
	entryCache *solver.ShardedCache
	crossCache map[expr.FP]expr.Formula
	// entryActive breaks recursion cycles between loop crossings and
	// their entry checks (a cycle answers false: conservative). cuts
	// counts the cycles it has broken, so provedCached can tell a verdict
	// that leaned on one.
	entryActive map[expr.FP]bool
	cuts        int
	// shared, when non-nil, replaces the bool-valued caches with the
	// pool's, shared across a worker pool's engines. Only the bool
	// caches are shareable: their keys embed the complete formula (by
	// fingerprint, verified structurally on hit) and its proof point,
	// and a verdict about those is a fact whichever engine computes it.
	// The formula-valued crossCache stays per-engine — a cached
	// invariant carries the minting engine's fresh-variable names,
	// which another engine could independently re-mint with a
	// different meaning (capture).
	shared *sharedCaches
}

// sharedCaches backs a pool of engines with concurrency-safe variants of
// the bool-valued proof caches.
type sharedCaches struct {
	query *solver.ShardedCache // provedCached results
	entry *solver.ShardedCache // loop-entry proof results
}

// New builds an engine over propagation results.
func New(res *propagate.Result, p *solver.Prover, opts Options) *Engine {
	arch := res.G.Prog.Arch
	return &Engine{Res: res, P: p, Opts: opts, g: res.G,
		rm:          arch.Regs(),
		conv:        arch.Conv(),
		cache:       solver.NewShardedCache(),
		entryCache:  solver.NewShardedCache(),
		crossCache:  make(map[expr.FP]expr.Formula),
		entryActive: make(map[expr.FP]bool)}
}

// newShared builds a worker engine whose bool-valued caches are the
// pool's shared ones.
func newShared(res *propagate.Result, p *solver.Prover, opts Options, sc *sharedCaches) *Engine {
	e := New(res, p, opts)
	e.shared = sc
	return e
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
// With Opts.Parallelism != 1, independent condition groups are
// discharged by a worker pool (see pool.go); with Parallelism 1 the
// original sequential path runs unchanged.
func (e *Engine) Prove(conds []*annotate.GlobalCond) []CondResult {
	out, _ := e.ProveContext(context.Background(), conds)
	return out
}

// ProveContext is Prove with cancellation: the context is consulted
// between conditions (sequential path) and between condition chunks
// (pool path). On cancellation it returns the verdicts computed so far
// together with ctx.Err(); unreached entries are zero-valued.
func (e *Engine) ProveContext(ctx context.Context, conds []*annotate.GlobalCond) ([]CondResult, error) {
	par := e.Opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par == 1 || len(conds) <= 1 {
		return e.proveSequential(ctx, conds)
	}
	return e.proveParallel(ctx, conds, par)
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
// input; both the sequential and the parallel path consume it.
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

// proveGroup attempts a bounds group as a single conjunction.
func (e *Engine) proveGroup(conds []*annotate.GlobalCond, g condGroup) bool {
	fs := make([]expr.Formula, len(g.members))
	for i, idx := range g.members {
		fs[i] = conds[idx].F
	}
	conj := expr.Simplify(expr.Conj(fs...))
	return e.provedCached(g.node, g.after, conj)
}

// proveCond discharges one condition. groupProved short-circuits the
// proof when the condition's bounds group already succeeded as a
// conjunction. Every strategy tried is recorded as an Attempt, and the
// whole proof runs under a "cond" span when observing.
func (e *Engine) proveCond(c *annotate.GlobalCond, groupProved bool) CondResult {
	r := CondResult{Cond: c}
	r.Span = e.Obs.Begin("cond", c.Desc)
	if e.Opts.CondTimeout > 0 {
		// A fresh per-condition deadline; a previous condition's timeout
		// trip is cleared so one pathological condition does not poison
		// the rest.
		e.P.BeginCond(time.Now().Add(e.Opts.CondTimeout))
	}
	attempt := func(kind string, f expr.Formula) bool {
		f = expr.Simplify(f)
		var wlp string
		e.wlpCapture = &wlp
		ok := e.provedCached(c.Node, c.AfterNode, f)
		e.wlpCapture = nil
		r.Attempts = append(r.Attempts, Attempt{
			Kind: kind, Formula: e.P.Intern.StringOf(f), WLP: wlp, Proved: ok,
		})
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
		// Bare predicate first: fact-free formulas keep the
		// invariant chains clean; fall back to assuming the
		// typestate assertions.
		r.Proved = attempt("bare", c.F)
		if !r.Proved {
			if _, noFacts := c.Facts.(expr.TrueF); !noFacts {
				r.Proved = attempt("with-facts", expr.Implies(c.Facts, c.F))
			}
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

// proveSequential is the legacy single-threaded path: one engine, one
// prover, caches shared across all conditions. The context is checked
// before every group and every condition.
func (e *Engine) proveSequential(ctx context.Context, conds []*annotate.GlobalCond) ([]CondResult, error) {
	groupProved := make([]bool, len(conds))
	for _, g := range boundsGroups(conds) {
		if err := ctx.Err(); err != nil {
			return make([]CondResult, len(conds)), err
		}
		if e.proveGroup(conds, g) {
			for _, idx := range g.members {
				groupProved[idx] = true
			}
		}
	}
	out := make([]CondResult, len(conds))
	for i, c := range conds {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out[i] = e.proveCond(c, groupProved[i])
	}
	return out, nil
}

// stopped reports whether the prover has tripped (resource exhaustion
// or cancellation): further proof work is pointless and would only
// delay draining the check.
func (e *Engine) stopped() bool { return e.P.Stopped() }

// provedCached runs proveAt through the per-query cache, for top-level
// conditions and call-site requirements alike. The cache must hold only
// context-free merits verdicts, so two kinds are never stored:
//   - a verdict reached after the prover tripped is conservative but
//     budget-dependent, not a fact about the formula;
//   - a verdict reached after a loop-entry cycle cut (entryActive) fired
//     during its computation answered false for a query that was only
//     open because of the enclosing proof, so it depends on that proof.
func (e *Engine) provedCached(node int, after bool, f expr.Formula) bool {
	if e.stopped() {
		return false
	}
	// The proof point (node, after) is the key's salt: mixed into the
	// fingerprint for distribution, and stored alongside the formula so
	// a hit is verified against both.
	salt := uint64(node)<<1 | boolBit(after)
	key := expr.Fingerprint(f).Mixed(salt)
	cache := e.cache
	if e.shared != nil {
		cache = e.shared.query
	}
	if v, ok := cache.Get(key, salt, f); ok {
		e.Stats.CacheHits++
		return v
	}
	cuts := e.cuts
	v := e.proveAt(node, after, f)
	if !e.stopped() && e.cuts == cuts {
		cache.Put(key, salt, f, v)
	}
	return v
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
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
	if e.wlpCapture != nil && *e.wlpCapture == "" {
		*e.wlpCapture = e.P.Intern.StringOf(g)
	}
}

// synthesize runs one invariant synthesis under an "induction" span,
// folding the search-effort stats into the engine's totals.
func (e *Engine) synthesize(hooks induction.Hooks, what string) (*induction.Result, bool) {
	if e.stopped() {
		// The envelope is gone: skip the search entirely (the caller
		// degrades to "not proved", which is conservative).
		return &induction.Result{}, false
	}
	e.Stats.InductionRuns++
	e.Obs.Begin("induction", what)
	res, ok := induction.Synthesize(e.P, hooks, e.Opts.Induction)
	e.Stats.InductionIters += res.Stats.Iterations
	e.Stats.InductionCands += res.Stats.Candidates
	e.Obs.End("iters", fmt.Sprint(res.Stats.Iterations), "ok", fmt.Sprint(ok))
	return res, ok
}

// proveAt proves that f holds before (or after) node in every execution.
func (e *Engine) proveAt(node int, after bool, f expr.Formula) bool {
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
	proc := e.g.ProcOf(node)
	reg := region{proc: proc, loop: l}
	hooks := induction.Hooks{
		First: func(back expr.Formula) expr.Formula {
			g := e.passRegion(reg, map[int]expr.Formula{node: f}, nil, nil, back)
			e.captureWLP(g)
			return g
		},
		Next: func(back expr.Formula) expr.Formula {
			return e.passRegion(reg, nil, nil, nil, back)
		},
		OnEntry: func(w expr.Formula) bool {
			return e.proveAtLoopEntry(l, w)
		},
		ModifiedVars: e.modifiedVars(l),
	}
	_, ok := e.synthesize(hooks, "in-loop")
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
	salt := uint64(l.Header)
	key := expr.Fingerprint(w).Mixed(salt)
	cache := e.entryCache
	if e.shared != nil {
		cache = e.shared.entry
	}
	if v, ok := cache.Get(key, salt, w); ok {
		return v
	}
	if e.entryActive[key] {
		e.cuts++
		return false
	}
	e.entryActive[key] = true
	v := e.proveAtLoopEntryUncached(l, w)
	delete(e.entryActive, key)
	if e.stopped() {
		// A verdict reached under a trip is budget-dependent: never
		// cache it.
		return v
	}
	cache.Put(key, salt, w, v)
	return v
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
	parent := l.Parent
	reg := region{proc: proc, loop: parent}
	hooks := induction.Hooks{
		First: func(back expr.Formula) expr.Formula {
			return e.passRegion(reg, nil, entryTargets, nil, back)
		},
		Next: func(back expr.Formula) expr.Formula {
			return e.passRegion(reg, nil, nil, nil, back)
		},
		OnEntry: func(wi expr.Formula) bool {
			return e.proveAtLoopEntry(parent, wi)
		},
		ModifiedVars: e.modifiedVars(parent),
	}
	_, ok := e.synthesize(hooks, "loop-entry")
	return ok
}

// proveAtProcEntry discharges a formula required at a procedure's entry:
// against the initial annotations for the program's entry procedure, and
// at every call site otherwise (Section 5.2.1: "when we reach the entry
// of a procedure, we check that the conditions are true at each
// call site"). A call-site requirement is a query like any other, so it
// goes through the query cache: one check that reaches the same
// requirement at the same site again answers it from there.
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
	for _, site := range sites {
		if !e.provedCached(site.DelayNode, true, g) {
			return false
		}
	}
	return true
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
	// Materialize the exit continuations so the crossing can be cached:
	// identical continuations (common across chain iterations of the
	// enclosing synthesis) reuse the synthesized invariant.
	exitVals := map[int]expr.Formula{}
	for _, x := range c.Exits {
		if _, ok := exitVals[x.To]; !ok {
			exitVals[x.To] = outerCont(x.To)
		}
	}
	// The key fingerprints the crossing's full context: the header plus
	// each (sorted) id→formula section, with a tag and length word per
	// section so the three lists cannot run into each other.
	key := expr.SeedFP(0xc5055).Mixed(uint64(c.Header))
	{
		ids := make([]int, 0, len(exitVals))
		for id := range exitVals {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		key = key.Mixed(1).Mixed(uint64(len(ids)))
		for _, id := range ids {
			key = key.Mixed(uint64(id)).MixFP(expr.Fingerprint(exitVals[id]))
		}
		tids := make([]int, 0, len(targets))
		for n := range targets {
			tids = append(tids, n)
		}
		sort.Ints(tids)
		key = key.Mixed(2).Mixed(uint64(len(tids)))
		for _, n := range tids {
			key = key.Mixed(uint64(n)).MixFP(expr.Fingerprint(targets[n]))
		}
		lids := make([]int, 0, len(loopEntryTargets))
		byHeader := map[int]expr.Formula{}
		for l2, f := range loopEntryTargets {
			lids = append(lids, l2.Header)
			byHeader[l2.Header] = f
		}
		sort.Ints(lids)
		key = key.Mixed(3).Mixed(uint64(len(lids)))
		for _, h := range lids {
			key = key.Mixed(uint64(h)).MixFP(expr.Fingerprint(byHeader[h]))
		}
	}
	if inv, ok := e.crossCache[key]; ok {
		return inv
	}
	exitFn := func(to int) expr.Formula {
		if f, ok := exitVals[to]; ok {
			return f
		}
		// An exit of c lands back in the outer region (or beyond).
		return outerCont(to)
	}
	hooks := induction.Hooks{
		First: func(b expr.Formula) expr.Formula {
			return e.passRegion(inner, targets, loopEntryTargets, exitFn, b)
		},
		Next: func(b expr.Formula) expr.Formula {
			return e.passRegion(inner, targets, loopEntryTargets, exitFn, b)
		},
		ModifiedVars: e.modifiedVars(c),
	}
	res, ok := e.synthesize(hooks, "cross")
	inv := expr.F()
	if ok {
		inv = res.Invariant
	}
	e.crossCache[key] = inv
	return inv
}
