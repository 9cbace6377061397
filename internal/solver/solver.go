// Package solver implements the safety checker's theorem prover for
// Presburger-style formulas: linear equalities and inequalities over
// integer variables plus divisibility (alignment) constraints, combined
// with the usual connectives and quantifiers.
//
// The paper uses the Omega Library; this is a from-scratch replacement
// built around integer Fourier-Motzkin elimination with the Omega test's
// real/dark shadows. The prover is sound and three-valued at heart: it
// answers "valid" only when certain, and treats everything it cannot
// decide as "not proved", which makes the overall safety checker reject
// rather than accept in the presence of incompleteness.
package solver

import (
	"fmt"
	"sort"
	"time"

	"mcsafe/internal/expr"
	"mcsafe/internal/obs"
)

// The limits bound the work the prover will do before giving a
// conservative answer. They are generous enough for all formulas the
// checker generates for the paper's 13 evaluation programs.
const (
	MaxFMConstraints = 4096               // constraint-count cap during elimination
	MaxResidueCombos = 1 << 16            // residue enumeration cap for congruences
	MaxDNFClauses    = expr.MaxDNFClauses // clause cap of a DNF expansion
)

// Stats counts prover activity, reported by the benchmark harness and
// the observability layer.
type Stats struct {
	ValidQueries int
	CacheHits    int
	Eliminations int
	// DNFBlowups counts disjunctive-normal-form conversions abandoned
	// at the clause cap — each one is a formula the prover had to
	// answer conservatively.
	DNFBlowups int
	// FMPrefixReuses counts DNF clauses whose Fourier-Motzkin
	// elimination was answered from the clause memo instead of being
	// redone: conditions generated from a shared WLP prefix expand to
	// many identical clauses, and each reuse replays the memoized
	// run's elimination count into Eliminations (so that counter still
	// reflects recomputation) while skipping the work.
	FMPrefixReuses int
	// EarlyUnsatPrunes counts formulas or clauses discharged by the
	// cheap contradiction scan (directly contradictory bounds on one
	// linear part) before any DNF expansion or elimination ran.
	EarlyUnsatPrunes int
}

// Add adds o's counts to s.
func (s *Stats) Add(o Stats) {
	s.ValidQueries += o.ValidQueries
	s.CacheHits += o.CacheHits
	s.Eliminations += o.Eliminations
	s.DNFBlowups += o.DNFBlowups
	s.FMPrefixReuses += o.FMPrefixReuses
	s.EarlyUnsatPrunes += o.EarlyUnsatPrunes
}

// Prover decides validity of formulas. A Prover caches results by
// structural fingerprint (the caching enhancement of Section 5.2.3,
// keyed by expr.FP instead of rebuilding the canonical string per
// probe; hits verify structural equality so a hash collision degrades
// to a miss). A Prover itself is not safe for concurrent use — its
// Stats and scratch state have a single owner — but many provers on
// concurrent goroutines may share one ShardedCache (see NewShared),
// because a verdict is a pure function of the formula.
type Prover struct {
	Stats Stats
	// Obs, when non-nil, records one span per solved (cache-missing)
	// validity query. Like the prover itself it is single-owner: the
	// worker must belong to the goroutine driving this prover.
	Obs *obs.Worker
	// Intern, when non-nil, memoizes formula stringification for the
	// observer span attributes (the only remaining consumer of formula
	// strings on the solver path). Nil is fine: strings are then built
	// directly.
	Intern *expr.Interner
	// Ctl, when non-nil, governs the prover's resource use: the hot
	// loops consult it (see tick) so a single pathological query is
	// interruptible mid-proof by cancellation, deadline, or step
	// budget. Many provers of one check share one Ctl.
	Ctl   *Ctl
	cache *ShardedCache // formula-verdict cache, possibly shared across provers

	// scratch is the DNF walker's working storage, lent to each walk
	// and taken back after it (see walkScratch).
	scratch walkScratch

	// clauseMemo memoizes clauseUnsat by clause fingerprint, always
	// private (per-goroutine) state. Entries record the elimination
	// count of the memoized run so a hit replays it into Stats; see
	// clauseUnsatMemo.
	clauseMemo map[expr.FP]clauseMemoEntry

	// condDeadline bounds the current condition's proof (zero = none);
	// see BeginCond. trip latches why the prover stopped ("" while
	// running); ticks counts governance checks since construction.
	condDeadline time.Time
	trip         string
	ticks        int64
}

// clauseMemoEntry is one clause-memo slot; see clauseUnsatMemo.
type clauseMemoEntry struct {
	c     expr.Clause
	elims int
	unsat bool
}

// New returns a prover with a result cache of its own.
func New() *Prover {
	return NewShared(NewShardedCache())
}

// NewShared returns a prover backed by a concurrency-safe formula cache
// that may be shared with other provers running on other goroutines.
func NewShared(c *ShardedCache) *Prover {
	return &Prover{cache: c}
}

// SharedCache returns the formula cache backing this prover, for
// handing to further provers that should share it.
func (p *Prover) SharedCache() *ShardedCache { return p.cache }

// Valid reports whether f is valid (true under every integer assignment
// of its free variables). A false answer means "not proved": the formula
// may be valid but outside the decidable fragment the prover handles
// exactly.
func (p *Prover) Valid(f expr.Formula) bool {
	p.Stats.ValidQueries++
	key := expr.Fingerprint(f)
	if r, ok := p.cache.Get(key, f); ok {
		p.Stats.CacheHits++
		return r
	}
	r := p.solve(f)
	// A verdict reached under a resource trip is budget-dependent, not a
	// fact about the formula: never cache it.
	if p.trip == "" {
		p.cache.Put(key, f, r)
	}
	return r
}

// solve runs the decision procedure on a cache miss, wrapped in a
// "query" span when an observer is attached. Cache hits get no span:
// they cost no prover effort, and are tallied by the cache-hit counter
// instead. The formula is stringified (through the intern table) only
// on this instrumented path — the no-op observer pays nothing.
func (p *Prover) solve(f expr.Formula) bool {
	if p.Obs == nil {
		return p.valid(f)
	}
	p.Obs.Begin("query", "solver.Valid")
	r := p.valid(f)
	p.Obs.End("formula", obs.TruncateFormula(p.Intern.StringOf(f)), "valid", fmt.Sprint(r))
	return r
}

// Implied reports whether hyp -> goal is valid.
func (p *Prover) Implied(hyp, goal expr.Formula) bool {
	return p.Valid(expr.Implies(hyp, goal))
}

func (p *Prover) valid(f expr.Formula) bool {
	if p.tick() {
		return false // interrupted: conservatively "not proved"
	}
	// f valid  iff  ¬f unsatisfiable.
	neg, exact := p.qe(expr.NNF(expr.Negate(f)), true)
	if !exact {
		return false
	}
	// Stream the DNF clauses of ¬f out of the formula tree instead of
	// materializing the cross product: the walker prunes any branch
	// whose partial clause is already contradictory, so a contradiction
	// shared by a subtree's clauses is paid for once instead of once
	// per clause — and the (often exponential) slice churn of building
	// clauses that exist only to be refuted never happens at all.
	//
	// Two passes over the same precompiled tree. The first only counts
	// branches against the visit budget, so a query that blows up
	// halfway costs cheap branch visits, never a discarded
	// Fourier-Motzkin run. The second re-walks and eliminates each
	// surviving clause in place — no clause is ever materialized; the
	// first satisfiable one aborts the search exactly where the
	// materializing expansion would have stopped scanning its list.
	root := compileDNF(expr.NNF(neg))
	w := dnfWalker{p: p, walkScratch: p.lendScratch()}
	ok := w.walk(root, nil)
	p.scratch = w.walkScratch
	if w.tripped {
		return false // interrupted: conservatively "not proved"
	}
	if w.blowup || !ok {
		p.Stats.DNFBlowups++
		return false
	}
	e := dnfWalker{p: p, eliminate: true, walkScratch: p.lendScratch()}
	ok = e.walk(root, nil)
	p.scratch = e.walkScratch
	if e.tripped {
		return false
	}
	return ok
}

// walkScratch is a dnfWalker's working storage: the clause prefix on
// the current path, its incremental fingerprints, the bounds map with
// its undo log, and the continuation freelist. A walk unwinds all of
// it to empty on every return path, so each Prover keeps one set and
// lends it to every walk instead of regrowing the buffers per query.
type walkScratch struct {
	prefix    expr.Clause
	fps       []expr.FP // fps[i]: incremental clause FP over prefix[:i+1]
	bounds    map[expr.FP]fastBound
	undo      []boundUndo
	freeConts *conjCont
}

// lendScratch returns the prover's walker storage, emptied. A walk
// always unwinds it, but one cut short by a contained panic would not
// have, so it is reset here rather than trusted.
func (p *Prover) lendScratch() walkScratch {
	s := p.scratch
	s.prefix, s.fps, s.undo = s.prefix[:0], s.fps[:0], s.undo[:0]
	clear(s.bounds)
	return s
}

// dnfWalker enumerates the DNF clauses of a quantifier-free NNF
// formula by depth-first search, in exactly the order expr.DNF would
// materialize them. prefix is the partial clause on the current path;
// bounds tracks the strongest lower bound per linear variable part
// (the incremental form of atomsUnsatFast), with an undo log so
// backtracking restores it in O(changes). A contradiction raised while
// pushing an atom prunes the entire subtree under it.
type dnfWalker struct {
	p *Prover
	walkScratch
	// visits counts completed branches — surviving leaves plus pruned
	// subtrees. Capped at MaxDNFClauses so the walk never does more
	// branch-work than the materializing expansion would have: a prune
	// retires at least one of the old expansion's clauses, so any query
	// that fit the cap before still fits, while a query that blew up
	// before gets its grace budget spent on (cheap) prunes and may now
	// resolve if its contradictions sit near the root.
	visits int
	// eliminate selects the second pass: leaves run clause elimination
	// in place (aborting the walk at the first satisfiable clause)
	// instead of being counted, and the budget/prune counters are left
	// alone — the first pass already charged them.
	eliminate bool
	blowup    bool // visit count exceeded MaxDNFClauses, or non-QF input
	tripped   bool // resource governor interrupted the walk
}

// fastBound records varPart(e) >= lower, derived from the atom e >= 0.
type fastBound struct {
	e     expr.LinExpr
	lower int64
}

// boundUndo is one undo-log record: the previous slot content for fp.
type boundUndo struct {
	fp      expr.FP
	prev    fastBound
	existed bool
}

// wKind discriminates the walker's precompiled nodes.
type wKind byte

const (
	wTrue wKind = iota
	wFalse
	wAtom
	wAnd
	wOr
	wBad // quantified or negated subformula: not quantifier-free
)

// wBound is one precompiled bound record to push for an atom: the
// expression e of "e >= 0" plus both variable-part fingerprints,
// computed once per query instead of once per branch revisit.
type wBound struct {
	e     expr.LinExpr
	posFP expr.FP // VarPartFP(e, false)
	negFP expr.FP // VarPartFP(e, true)
}

// wNode is one precompiled NNF node. Atom nodes carry everything the
// incremental contradiction scan needs — constant verdicts, bound
// records, the negated expression of an equality — so the DFS, which
// revisits a node once per surrounding disjunction branch, does no
// fingerprinting or expression arithmetic of its own.
type wNode struct {
	kind   wKind
	atom   expr.Atom
	atomFP expr.FP  // expr.AtomFP(atom), for incremental clause keys
	cstBad bool     // constant atom, and it is contradictory
	bounds []wBound // bound records (1 for GE, 2 for EQ, none otherwise)
	kids   []wNode
}

// compileDNF precompiles a quantifier-free NNF formula for the walker,
// visiting each node exactly once.
func compileDNF(f expr.Formula) *wNode {
	n := &wNode{}
	compileInto(f, n)
	return n
}

func compileInto(f expr.Formula, n *wNode) {
	switch g := f.(type) {
	case expr.TrueF:
		n.kind = wTrue
	case expr.FalseF:
		n.kind = wFalse
	case expr.AtomF:
		n.kind = wAtom
		n.atom = g.A
		n.atomFP = expr.AtomFP(g.A)
		if cst, ok := g.A.E.IsConst(); ok {
			switch g.A.Kind {
			case expr.GE:
				n.cstBad = cst < 0
			case expr.EQ:
				n.cstBad = cst != 0
			case expr.DIV:
				m := g.A.M
				if m < 0 {
					m = -m
				}
				if m == 0 {
					n.cstBad = cst != 0
				} else {
					n.cstBad = cst%m != 0
				}
			}
			return
		}
		mk := func(e expr.LinExpr) wBound {
			return wBound{e: e, posFP: expr.VarPartFP(e, false), negFP: expr.VarPartFP(e, true)}
		}
		switch g.A.Kind {
		case expr.GE:
			n.bounds = []wBound{mk(g.A.E)}
		case expr.EQ:
			n.bounds = []wBound{mk(g.A.E), mk(g.A.E.Scale(-1))}
		}
	case expr.And:
		n.kind = wAnd
		n.kids = compileKids(g.Fs)
	case expr.Or:
		n.kind = wOr
		n.kids = compileKids(g.Fs)
	default:
		n.kind = wBad
	}
}

func compileKids(fs []expr.Formula) []wNode {
	kids := make([]wNode, len(fs))
	for i, sub := range fs {
		compileInto(sub, &kids[i])
	}
	return kids
}

// conjCont is the continuation of a conjunction: the remaining
// conjuncts to expand once the current subformula's clauses complete.
// The DFS allocates and releases them in LIFO order, so the freelist in
// walkScratch caps allocations at the maximum conjunction-nesting depth
// instead of one per branch.
type conjCont struct {
	fs   []wNode
	next *conjCont
}

// walk reports whether every completed clause of f⋀k is unsatisfiable.
// Pruned branches count as unsatisfiable (every clause below them
// contains the contradictory prefix); a false return short-circuits
// the whole search, as does a blowup or a governance trip.
func (w *dnfWalker) walk(n *wNode, k *conjCont) bool {
	switch n.kind {
	case wTrue:
		return w.resume(k)
	case wFalse:
		return true // contributes no clauses
	case wAtom:
		pm, um := len(w.prefix), len(w.undo)
		var r bool
		if w.push(n) {
			if !w.eliminate {
				w.p.Stats.EarlyUnsatPrunes++
			}
			r = w.spend()
		} else {
			r = w.resume(k)
		}
		w.popTo(pm, um)
		return r
	case wAnd:
		return w.seq(n.kids, k)
	case wOr:
		for i := range n.kids {
			if !w.walk(&n.kids[i], k) {
				return false
			}
		}
		return true
	}
	// Quantified or negated subformula (qe should have removed these).
	// Treated like expr.DNF's error: conservative.
	w.blowup = true
	return false
}

func (w *dnfWalker) seq(fs []wNode, k *conjCont) bool {
	if len(fs) == 0 {
		return w.resume(k)
	}
	if len(fs) == 1 {
		return w.walk(&fs[0], k)
	}
	c := w.freeConts
	if c == nil {
		c = &conjCont{}
	} else {
		w.freeConts = c.next
	}
	c.fs, c.next = fs[1:], k
	r := w.walk(&fs[0], c)
	// c is dead once the subtree walk returns; recycle it.
	c.fs, c.next = nil, w.freeConts
	w.freeConts = c
	return r
}

func (w *dnfWalker) resume(k *conjCont) bool {
	if k == nil {
		return w.leaf()
	}
	return w.seq(k.fs, k.next)
}

// spend charges one completed branch against the visit budget and
// reports whether the walk may continue. The eliminate pass retraces
// branches the first pass already paid for, so it only honors the
// resource governor.
func (w *dnfWalker) spend() bool {
	if w.p.tick() {
		w.tripped = true
		return false
	}
	if w.eliminate {
		return true
	}
	w.visits++
	if w.visits > MaxDNFClauses {
		w.blowup = true
		return false
	}
	return true
}

// leaf handles one completed surviving clause. The budget pass just
// counts it; the eliminate pass runs the clause memo / Fourier-Motzkin
// on the live prefix — no copy, the memo key comes from the
// incremental fingerprint chain in O(1) — and a satisfiable clause
// (returning false) aborts the walk: ¬f is satisfiable, f unproved.
func (w *dnfWalker) leaf() bool {
	if !w.spend() {
		return false
	}
	if !w.eliminate {
		return true
	}
	seed := expr.ClauseFPSeed()
	if n := len(w.fps); n > 0 {
		seed = w.fps[n-1]
	}
	return w.p.clauseUnsatMemo(seed.ClauseFPDone(len(w.prefix)), w.prefix)
}

// push appends n's atom to the clause prefix and reports whether it
// contradicts the prefix by inspection — the incremental equivalent of
// running atomsUnsatFast over the completed clause.
func (w *dnfWalker) push(n *wNode) bool {
	seed := expr.ClauseFPSeed()
	if l := len(w.fps); l > 0 {
		seed = w.fps[l-1]
	}
	w.fps = append(w.fps, seed.MixFP(n.atomFP))
	w.prefix = append(w.prefix, n.atom)
	if n.cstBad {
		return true
	}
	for i := range n.bounds {
		if w.addGE(&n.bounds[i]) {
			return true
		}
	}
	return false
}

// addGE records g.e >= 0, i.e. varPart(e) >= -e.Const, and reports a
// contradiction against the strongest recorded bound on the negated
// variable part: -P >= l means P <= -l, contradicting P >= -c when
// l > c. Every fingerprint match is verified against the actual
// coefficients, so a hash collision can only miss a pruning
// opportunity, never manufacture a contradiction.
func (w *dnfWalker) addGE(g *wBound) bool {
	if b, ok := w.bounds[g.negFP]; ok && expr.SameVarPart(b.e, g.e, true) && b.lower > g.e.Const {
		return true
	}
	b, ok := w.bounds[g.posFP]
	if !ok || (expr.SameVarPart(b.e, g.e, false) && -g.e.Const > b.lower) {
		if w.bounds == nil {
			w.bounds = make(map[expr.FP]fastBound)
		}
		w.undo = append(w.undo, boundUndo{fp: g.posFP, prev: b, existed: ok})
		w.bounds[g.posFP] = fastBound{e: g.e, lower: -g.e.Const}
	}
	return false
}

// popTo backtracks the prefix and the bounds map to a saved mark.
func (w *dnfWalker) popTo(prefixLen, undoLen int) {
	w.prefix = w.prefix[:prefixLen]
	w.fps = w.fps[:prefixLen]
	for i := len(w.undo) - 1; i >= undoLen; i-- {
		u := w.undo[i]
		if u.existed {
			w.bounds[u.fp] = u.prev
		} else {
			delete(w.bounds, u.fp)
		}
	}
	w.undo = w.undo[:undoLen]
}

// clauseUnsatMemo answers clauseUnsat through the per-prover clause
// memo. Conditions generated from one WLP prefix share their leading
// conjuncts, so their negations expand to largely identical DNF
// clauses; the memo turns every repeat into a fingerprint probe. A hit
// replays the memoized run's elimination count into Stats so the
// effort counters are bit-identical to recomputing, and verdicts
// reached under a resource trip are never memoized (they are
// budget-dependent, not facts about the clause).
func (p *Prover) clauseUnsatMemo(key expr.FP, c expr.Clause) bool {
	if m, ok := p.clauseMemo[key]; ok && clauseEqual(m.c, c) {
		p.Stats.FMPrefixReuses++
		p.Stats.Eliminations += m.elims
		return m.unsat
	}
	before := p.Stats.Eliminations
	r := p.clauseUnsat(c)
	if p.trip == "" {
		if p.clauseMemo == nil {
			p.clauseMemo = make(map[expr.FP]clauseMemoEntry)
		}
		// c aliases the walker's live prefix; snapshot it before it is
		// backtracked out from under the memo.
		stored := make(expr.Clause, len(c))
		copy(stored, c)
		p.clauseMemo[key] = clauseMemoEntry{c: stored, unsat: r, elims: p.Stats.Eliminations - before}
	}
	return r
}

// clauseEqual is order-sensitive structural equality of clauses — the
// exact relation expr.ClauseFP approximates.
func clauseEqual(a, b expr.Clause) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].M != b[i].M || !a[i].E.Equal(b[i].E) {
			return false
		}
	}
	return true
}

// atomsUnsatFast reports whether the conjunction of atoms is certainly
// unsatisfiable by inspection: a constant-false atom, or a pair of
// inequalities bounding the same linear part into an empty interval
// (e + c >= 0 ∧ -e + d >= 0 with -c > d). It is the one-shot reference
// form of the dnfWalker's incremental scan — the walker prunes exactly
// the clauses this function rejects — kept as the oracle for the
// equivalence tests. It is sound: every fingerprint match is verified
// against the actual coefficients, so a hash collision cannot
// manufacture a contradiction.
func atomsUnsatFast(atoms expr.Clause) bool {
	type bound struct {
		e     expr.LinExpr // varPart(e) >= lower was derived from this
		lower int64
	}
	var bounds map[expr.FP]bound
	// addGE records e >= 0, i.e. varPart(e) >= -e.Const, and reports a
	// contradiction against the strongest recorded bound on the negated
	// variable part: -P >= l means P <= -l, contradicting P >= -c when
	// l > c.
	addGE := func(e expr.LinExpr) bool {
		if b, ok := bounds[expr.VarPartFP(e, true)]; ok && expr.SameVarPart(b.e, e, true) && b.lower > e.Const {
			return true
		}
		fp := expr.VarPartFP(e, false)
		if b, ok := bounds[fp]; !ok || (expr.SameVarPart(b.e, e, false) && -e.Const > b.lower) {
			bounds[fp] = bound{e: e, lower: -e.Const}
		}
		return false
	}
	for _, a := range atoms {
		if cst, ok := a.E.IsConst(); ok {
			switch a.Kind {
			case expr.GE:
				if cst < 0 {
					return true
				}
			case expr.EQ:
				if cst != 0 {
					return true
				}
			case expr.DIV:
				m := a.M
				if m < 0 {
					m = -m
				}
				if m == 0 && cst != 0 {
					return true
				}
				if m != 0 && cst%m != 0 {
					return true
				}
			}
			continue
		}
		if bounds == nil {
			bounds = make(map[expr.FP]bound, 2*len(atoms))
		}
		switch a.Kind {
		case expr.GE:
			if addGE(a.E) {
				return true
			}
		case expr.EQ:
			if addGE(a.E) || addGE(a.E.Scale(-1)) {
				return true
			}
		}
	}
	return false
}

// Unsat reports whether f is certainly unsatisfiable.
func (p *Prover) Unsat(f expr.Formula) bool {
	return p.Valid(expr.Negate(f))
}

// qe eliminates quantifiers from an NNF formula. overApprox selects the
// approximation direction: when true the result may be weaker than f (an
// over-approximation, safe when f is being refuted); when false it may be
// stronger (an under-approximation, safe when f is being proved). The
// second result is false when no approximation in the requested direction
// could be produced.
func (p *Prover) qe(f expr.Formula, overApprox bool) (expr.Formula, bool) {
	// Most formulas the checker proves are already quantifier-free; for
	// those the recursive rebuild below is semantically the identity
	// (NNF already flattened through the same smart constructors), so
	// skip it with one read-only walk instead of reallocating the tree.
	if expr.QuantFree(f) {
		return f, true
	}
	switch g := f.(type) {
	case expr.TrueF, expr.FalseF, expr.AtomF:
		return f, true
	case expr.And:
		fs := make([]expr.Formula, len(g.Fs))
		for i, sub := range g.Fs {
			r, ok := p.qe(sub, overApprox)
			if !ok {
				return nil, false
			}
			fs[i] = r
		}
		return expr.Conj(fs...), true
	case expr.Or:
		fs := make([]expr.Formula, len(g.Fs))
		for i, sub := range g.Fs {
			r, ok := p.qe(sub, overApprox)
			if !ok {
				return nil, false
			}
			fs[i] = r
		}
		return expr.Disj(fs...), true
	case expr.Not:
		r, ok := p.qe(expr.NNF(g), overApprox)
		return r, ok
	case expr.Exists:
		body, ok := p.qe(g.F, overApprox)
		if !ok {
			return nil, false
		}
		clauses, err := expr.DNF(body)
		if err != nil {
			p.Stats.DNFBlowups++
			return nil, false
		}
		var out []expr.Formula
		for _, c := range clauses {
			elim, ok2 := p.eliminateFromClause(c, g.V, overApprox)
			if !ok2 {
				return nil, false
			}
			out = append(out, expr.ClauseFormula(elim))
		}
		return expr.Simplify(expr.Disj(out...)), true
	case expr.Forall:
		// ∀v.φ == ¬∃v.¬φ ; to approximate ∀ in one direction we need
		// ∃v.¬φ approximated in the opposite direction.
		inner, ok := p.qe(expr.NNF(expr.Negate(g.F)), !overApprox)
		if !ok {
			return nil, false
		}
		clauses, err := expr.DNF(inner)
		if err != nil {
			p.Stats.DNFBlowups++
			return nil, false
		}
		var out []expr.Formula
		for _, c := range clauses {
			elim, ok2 := p.eliminateFromClause(c, g.V, !overApprox)
			if !ok2 {
				return nil, false
			}
			out = append(out, expr.ClauseFormula(elim))
		}
		r, ok2 := p.qe(expr.NNF(expr.Negate(expr.Disj(out...))), overApprox)
		if !ok2 {
			return nil, false
		}
		return expr.Simplify(r), true
	}
	return f, true
}

// eliminateFromClause removes variable v from a conjunction of atoms,
// producing an approximation of the projection of the clause onto the
// remaining variables. When overApprox is true it computes the real
// shadow (a superset of the true projection, possibly dropping
// divisibility constraints on v); when false the dark shadow (a subset).
// The second result is false when no approximation in the requested
// direction could be produced.
func (p *Prover) eliminateFromClause(c expr.Clause, v expr.Var, overApprox bool) (expr.Clause, bool) {
	if p.tick() {
		// Interrupted: report that no approximation could be produced.
		// Every caller degrades conservatively (the query stays
		// unproved); callers that ignore the flag receive an empty
		// clause, a sound over-approximation.
		return nil, false
	}
	p.Stats.Eliminations++

	// First use an equality with a ±1 coefficient on v to substitute.
	for i, a := range c {
		if a.Kind != expr.EQ {
			continue
		}
		coef := a.E.CoefOf(v)
		if coef == 1 || coef == -1 {
			// v = (-E + coef*v) / coef  i.e. v = (coef*v - E*... )
			// From coef*v + rest = 0: v = -rest/coef.
			rest := a.E.Sub(expr.Term(coef, v))
			repl := rest.Scale(-coef) // -rest when coef=1, rest when coef=-1
			out := make(expr.Clause, 0, len(c)-1)
			for j, b := range c {
				if j == i {
					continue
				}
				out = append(out, expr.Atom{Kind: b.Kind, M: b.M, E: b.E.Subst(v, repl)})
			}
			return out, true
		}
	}

	// Classify atoms mentioning v into lower bounds (cL*v + eL >= 0 with
	// cL > 0, i.e. v >= -eL/cL) and upper bounds (-cU*v + eU >= 0 with
	// cU > 0, i.e. v <= eU/cU). Equalities split into one of each.
	type bound struct {
		c int64 // positive multiplier of v
		e expr.LinExpr
	}
	var lowers, uppers []bound
	var rest expr.Clause
	addGE := func(a expr.LinExpr) {
		coef := a.CoefOf(v)
		e := a.Sub(expr.Term(coef, v))
		if coef > 0 {
			lowers = append(lowers, bound{c: coef, e: e})
		} else {
			uppers = append(uppers, bound{c: -coef, e: e})
		}
	}
	for _, a := range c {
		coef := a.E.CoefOf(v)
		if coef == 0 {
			rest = append(rest, a)
			continue
		}
		switch a.Kind {
		case expr.EQ:
			addGE(a.E)
			addGE(a.E.Scale(-1))
		case expr.GE:
			addGE(a.E)
		case expr.DIV:
			// Dropping a divisibility constraint weakens the clause,
			// which only an over-approximation may do.
			if !overApprox {
				return rest, false
			}
		}
	}
	if len(lowers)*len(uppers) > MaxFMConstraints {
		if overApprox {
			// Drop all constraints on v: weaker, but allowed.
			return rest, true
		}
		return rest, false
	}
	for _, lo := range lowers {
		for _, up := range uppers {
			// v >= -lo.e/lo.c and v <= up.e/up.c combine to the real
			// shadow lo.c*up.e + up.c*lo.e >= 0.
			comb := up.e.Scale(lo.c).Add(lo.e.Scale(up.c))
			if !overApprox && (lo.c > 1 || up.c > 1) {
				// Dark shadow: subtract (cL-1)(cU-1).
				comb = comb.AddConst(-(lo.c - 1) * (up.c - 1))
			}
			rest = append(rest, expr.Atom{Kind: expr.GE, E: comb})
		}
	}
	return rest, true
}

// clauseUnsat reports whether a conjunction of atoms is certainly
// unsatisfiable over the integers.
func (p *Prover) clauseUnsat(c expr.Clause) bool {
	// Normalize and constant-fold.
	work := make(expr.Clause, 0, len(c))
	for _, a := range c {
		f := expr.Simplify(expr.AtomF{A: a})
		switch g := f.(type) {
		case expr.FalseF:
			return true
		case expr.TrueF:
		case expr.AtomF:
			work = append(work, g.A)
		}
	}

	// Substitute equalities with unit coefficients; detect gcd failures.
	changed := true
	for changed {
		if p.tick() {
			return false // interrupted: not certainly unsat
		}
		changed = false
		for i, a := range work {
			if a.Kind != expr.EQ {
				continue
			}
			if cst, ok := a.E.IsConst(); ok {
				if cst != 0 {
					return true
				}
				work = append(work[:i], work[i+1:]...)
				changed = true
				break
			}
			g := int64(0)
			for _, t := range a.E.Terms() {
				g = gcd64(g, t.C)
			}
			if g > 1 && a.E.Const%g != 0 {
				return true // no integer solution
			}
			var unit expr.Var
			var unitC int64
			for _, t := range a.E.Terms() {
				if t.C == 1 || t.C == -1 {
					unit, unitC = t.V, t.C
					break
				}
			}
			if unitC == 0 {
				continue
			}
			rest := a.E.Sub(expr.Term(unitC, unit))
			repl := rest.Scale(-unitC)
			next := make(expr.Clause, 0, len(work)-1)
			for j, b := range work {
				if j == i {
					continue
				}
				nb := expr.Atom{Kind: b.Kind, M: b.M, E: b.E.Subst(unit, repl)}
				f := expr.Simplify(expr.AtomF{A: nb})
				switch g2 := f.(type) {
				case expr.FalseF:
					return true
				case expr.TrueF:
				case expr.AtomF:
					next = append(next, g2.A)
				}
			}
			work = next
			changed = true
			break
		}
	}

	// Split remaining (non-unit) equalities into inequality pairs.
	var ineqs, divs expr.Clause
	for _, a := range work {
		switch a.Kind {
		case expr.EQ:
			ineqs = append(ineqs, expr.Atom{Kind: expr.GE, E: a.E})
			ineqs = append(ineqs, expr.Atom{Kind: expr.GE, E: a.E.Scale(-1)})
		case expr.GE:
			ineqs = append(ineqs, a)
		case expr.DIV:
			divs = append(divs, a)
		}
	}

	if p.congruencesUnsat(divs) {
		return true
	}
	return p.ineqsUnsat(ineqs)
}

// congruencesUnsat decides a system of divisibility constraints by
// residue enumeration after reducing coefficients modulo each modulus.
// It is exact when the search space fits the limits; otherwise it answers
// false (not certainly unsat).
func (p *Prover) congruencesUnsat(divs expr.Clause) bool {
	if len(divs) == 0 {
		return false
	}
	lcm := int64(1)
	varSet := make(map[expr.Var]bool)
	for _, a := range divs {
		m := a.M
		if m < 0 {
			m = -m
		}
		if m == 0 {
			continue
		}
		lcm = lcm / gcd64(lcm, m) * m
		for _, t := range a.E.Terms() {
			varSet[t.V] = true
		}
		if lcm > 64 {
			return false
		}
	}
	vars := make([]expr.Var, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	total := int64(1)
	for range vars {
		total *= lcm
		if total > MaxResidueCombos {
			return false
		}
	}
	env := make(map[expr.Var]int64, len(vars))
	tripped := false
	var try func(i int) bool
	try = func(i int) bool {
		if p.tick() {
			// Interrupted mid-enumeration: pretend a satisfying residue
			// was found so the search unwinds immediately; tripped then
			// forces the conservative "not certainly unsat" answer.
			tripped = true
			return true
		}
		if i == len(vars) {
			for _, a := range divs {
				m := a.M
				if m < 0 {
					m = -m
				}
				if m == 0 {
					continue
				}
				if a.E.Eval(env)%m != 0 {
					return false
				}
			}
			return true
		}
		for r := int64(0); r < lcm; r++ {
			env[vars[i]] = r
			if try(i + 1) {
				return true
			}
		}
		return false
	}
	sat := try(0)
	if tripped {
		return false
	}
	return !sat
}

// ineqsUnsat runs Fourier-Motzkin elimination over the rationals (real
// shadow); if the final constant constraints are contradictory the system
// has no rational — hence no integer — solution.
func (p *Prover) ineqsUnsat(ineqs expr.Clause) bool {
	work := ineqs
	for {
		if p.tick() {
			return false // interrupted: not certainly unsat
		}
		// Collect variables; pick the one with the fewest pairings.
		varCount := make(map[expr.Var][2]int)
		for _, a := range work {
			for _, t := range a.E.Terms() {
				cnt := varCount[t.V]
				if t.C > 0 {
					cnt[0]++
				} else {
					cnt[1]++
				}
				varCount[t.V] = cnt
			}
		}
		if len(varCount) == 0 {
			break
		}
		var bestV expr.Var
		bestCost := int(^uint(0) >> 1)
		vs := make([]expr.Var, 0, len(varCount))
		for v := range varCount {
			vs = append(vs, v)
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		for _, v := range vs {
			c := varCount[v]
			cost := c[0] * c[1]
			if cost < bestCost {
				bestCost, bestV = cost, v
			}
		}
		next, _ := p.eliminateFromClause(work, bestV, true)
		if len(next) > MaxFMConstraints {
			return false
		}
		// Constant-fold.
		folded := make(expr.Clause, 0, len(next))
		for _, a := range next {
			f := expr.Simplify(expr.AtomF{A: a})
			switch g := f.(type) {
			case expr.FalseF:
				return true
			case expr.TrueF:
			case expr.AtomF:
				folded = append(folded, g.A)
			}
		}
		work = folded
	}
	for _, a := range work {
		if cst, ok := a.E.IsConst(); ok {
			switch a.Kind {
			case expr.GE:
				if cst < 0 {
					return true
				}
			case expr.EQ:
				if cst != 0 {
					return true
				}
			}
		}
	}
	return false
}

// maxClauseGens caps the per-clause generalizations: Generalize makes
// them only when ¬w has at most this many DNF clauses.
const maxClauseGens = 64

// Generalize computes the generalizations ¬(elimination(¬w)) of Section
// 5.2.1 for each variable set. ¬w is normalized once: over-approximating
// quantifier elimination, then DNF. Each clause is projected once per
// set by real-shadow Fourier-Motzkin elimination. For set i, out[i] is
// the whole generalization (the negated disjunction of all projected
// clauses), then, when ¬w has at most maxClauseGens clauses, each
// clause's own ("if there are several resulting generalizations, then
// each of them in turn is chosen"), each followed, for a multi-atom
// projection, by the negation of each atom: the negated conjunction is
// a disjunction its weakest disjunct dominates, and an atom's is often
// sharper ("limit <= n" rather than "limit <= n ∨ limit <= n+1").
// Trivial per-clause and per-atom results are skipped. out is nil when
// quantifier elimination fails or the DNF exceeds its cap (counted once
// in DNFBlowups). The results are strengthening candidates; callers
// must re-verify anything built from them.
func (p *Prover) Generalize(w expr.Formula, sets [][]expr.Var) [][]expr.Formula {
	if len(sets) == 0 {
		return nil
	}
	qf, ok := p.qe(expr.NNF(expr.Negate(w)), true)
	if !ok {
		return nil
	}
	clauses, err := expr.DNF(qf)
	if err != nil {
		p.Stats.DNFBlowups++
		return nil
	}
	perClause := len(clauses) <= maxClauseGens
	out := make([][]expr.Formula, len(sets))
	for i, vars := range sets {
		// Each set gets its own projection slice, so no formula returned
		// for one set shares storage with another's.
		proj := make([]expr.Formula, len(clauses))
		gens := []expr.Formula{nil} // the whole generalization goes first
		for j, c := range clauses {
			cur := c
			for _, v := range vars {
				cur, _ = p.eliminateFromClause(cur, v, true)
			}
			proj[j] = expr.ClauseFormula(cur)
			if !perClause {
				continue
			}
			g, ok := negated(proj[j])
			if !ok {
				continue
			}
			gens = append(gens, g)
			if len(cur) > 1 {
				for _, a := range cur {
					if na, ok := negated(expr.AtomF{A: a}); ok {
						gens = append(gens, na)
					}
				}
			}
		}
		gens[0], _ = negated(expr.Simplify(expr.Disj(proj...)))
		out[i] = gens
	}
	return out
}

// negated returns ¬f in simplified negation normal form, and false when
// that is trivial (true or false).
func negated(f expr.Formula) (expr.Formula, bool) {
	g := expr.Simplify(expr.NNF(expr.Negate(f)))
	switch g.(type) {
	case expr.TrueF, expr.FalseF:
		return g, false
	}
	return g, true
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
