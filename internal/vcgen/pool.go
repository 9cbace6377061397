// Worker pool of Phase 5 (global verification), its only proving path.
// Condition groups — the formula-grouping units of Section 5.2.1 — are
// independent work items: nothing a group proves is an input to another
// group's proof, only a shortcut for it. The pool partitions them into
// chunks, and each worker proves every chunk it pulls with one engine of
// its own, backed by the check's one prover cache and its one table of
// memoized loop-entry verdicts. Verdicts are written by index, so the
// output ordering, verdicts, and violation lists do not depend on the
// worker count.
//
// Determinism argument: the prover cache a worker shares is keyed by
// structural formula fingerprints, each hit verified against the
// formula itself, and the loop-entry memo by (loop header, formula),
// each hit verified against the stored pair; every engine would store
// the same verdict for a key, so a hit changes only *when* a verdict is
// computed, never *what* it is. What a worker keeps to itself is its
// crossing memo and fresh-variable counter: a chunk may reuse an
// invariant its worker synthesized for an earlier chunk, and its fresh
// variables are numbered after that chunk's. Verdicts are
// therefore identical across settings as long as prover answers do not
// depend on fresh-variable numbering (TestParallelDeterminism checks
// this on the Figure 9 programs). At Parallelism 1 the single worker
// pulls the chunks in a fixed order, so it is deterministic from run to
// run. The chunk schedule (cheap chunks first, so the shared caches are
// warm before the expensive queries run) is a latency optimization: it
// permutes when verdicts are computed, never what they are.
package vcgen

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"mcsafe/internal/annotate"
	"mcsafe/internal/expr"
	"mcsafe/internal/faults"
	"mcsafe/internal/obs"
	"mcsafe/internal/solver"
)

// PanicError is a panic recovered in a pool worker, carried back to the
// coordinator so a poisoned proof cannot kill the process or leak the
// pool's goroutines. The core wraps it into its structured
// internal-error type.
type PanicError struct {
	// Cond is the ID of the condition being proved when the panic
	// fired, or -1 when it fired outside any condition.
	Cond int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("proof worker panicked: %v", e.Value)
}

// workItem is one atomic unit of global verification: a bounds group
// together with its members' individual fallbacks (group != nil), or a
// single ungrouped condition (group == nil, index single).
type workItem struct {
	group  *condGroup
	single int
}

// chunkTarget is the number of conditions a work chunk aims to cover.
// Neighboring conditions usually sit in the same loops, so keeping a few
// of them on one worker's engine (and its formula-valued crossing memo,
// which cannot be shared across engines) amortizes invariant synthesis,
// while chunks stay small enough to load-balance across workers.
const chunkTarget = 4

// buildChunks partitions the conditions into chunks of work items, in
// condition order. The partition depends only on the conditions — never
// on the worker count — so every parallelism setting proves exactly the
// same chunks and reaches the same verdicts.
func buildChunks(conds []*annotate.GlobalCond) [][]workItem {
	groupOf := map[int]*condGroup{} // first-member index -> group
	inGroup := make([]bool, len(conds))
	groups := boundsGroups(conds)
	for i := range groups {
		g := &groups[i]
		groupOf[g.members[0]] = g
		for _, idx := range g.members {
			inGroup[idx] = true
		}
	}
	var chunks [][]workItem
	var cur []workItem
	covered := 0
	flush := func() {
		if len(cur) > 0 {
			chunks = append(chunks, cur)
			cur, covered = nil, 0
		}
	}
	for i := range conds {
		if g, ok := groupOf[i]; ok {
			cur = append(cur, workItem{group: g, single: -1})
			covered += len(g.members)
		} else if !inGroup[i] {
			cur = append(cur, workItem{single: i})
			covered++
		}
		if covered >= chunkTarget {
			flush()
		}
	}
	flush()
	return chunks
}

// scheduleChunks returns the order in which workers should pull chunks:
// cheapest first, estimating a chunk's cost as the summed formula size
// of its conditions. Small conditions are the ones most likely to share
// WLP prefixes with many others, so proving them first warms the shared
// formula cache and clause memos before the expensive queries run. The
// order is deterministic (ties break on chunk index) and, per the
// determinism argument above, affects only scheduling — result slots
// are indexed by condition, so output order and verdicts are untouched.
func scheduleChunks(conds []*annotate.GlobalCond, chunks [][]workItem) []int {
	cost := make([]int, len(chunks))
	for i, chunk := range chunks {
		for _, it := range chunk {
			if it.group != nil {
				for _, idx := range it.group.members {
					cost[i] += expr.Size(conds[idx].F)
				}
			} else {
				cost[i] += expr.Size(conds[it.single].F)
			}
		}
	}
	order := make([]int, len(chunks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if cost[order[a]] != cost[order[b]] {
			return cost[order[a]] < cost[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// ProveContext is Prove with cancellation. Parallelism workers pull
// chunks off a shared index; worker 0 runs on the calling goroutine and
// workers 1..n−1 on goroutines of their own, so Parallelism 1 starts
// none. Each worker merges its engine and prover stats into e's once,
// so callers observe the Stats of one engine and one prover.
//
// When observing, each worker records through its own forked obs.Worker
// (chunks run under "chunk" spans) and flushes it before returning —
// the same single-owner discipline as the stats. The context is
// consulted once per chunk; on cancellation or a contained panic the
// remaining chunks are abandoned, and ProveContext returns the verdicts
// computed so far with the error. Unreached entries are zero-valued,
// which is "not proved".
func (e *Engine) ProveContext(ctx context.Context, conds []*annotate.GlobalCond) ([]CondResult, error) {
	chunks := buildChunks(conds)
	order := scheduleChunks(conds, chunks)
	par := e.Opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	par = min(par, len(chunks))
	out := make([]CondResult, len(conds))

	var next atomic.Int64
	var mu sync.Mutex // guards merging into e.Stats and e.P.Stats
	// failure holds the first contained panic (first writer wins); once
	// set, workers stop pulling chunks and the pool drains.
	var failure atomic.Pointer[PanicError]
	work := func(wkObs *obs.Worker) {
		we := e.worker(wkObs)
		cond := -1
		// A panic anywhere in the worker is contained here, so it can
		// neither kill the process nor strand wg.Wait. It ends the
		// worker, and failure stops the others from pulling chunks, so
		// the poisoned engine (its recursion marks and spans may be
		// left mid-proof) is never reused. Stats and the observer flush
		// in the same defer so the worker's bookkeeping survives every
		// exit path.
		defer func() {
			if r := recover(); r != nil {
				failure.CompareAndSwap(nil, &PanicError{
					Cond: cond, Value: r, Stack: debug.Stack(),
				})
				wkObs.EndAll()
			}
			mu.Lock()
			e.Stats.Add(we.Stats)
			e.P.Stats.Add(we.P.Stats)
			mu.Unlock()
			wkObs.Flush()
		}()
		faults.Fire(faults.WorkerStart)
		for ctx.Err() == nil && failure.Load() == nil {
			k := int(next.Add(1)) - 1
			if k >= len(order) {
				break
			}
			i := order[k]
			wkObs.Begin("chunk", fmt.Sprintf("chunk-%d", i))
			for _, it := range chunks[i] {
				if it.group != nil {
					cond = conds[it.group.members[0]].ID
					gp := we.proveGroup(conds, *it.group)
					for _, idx := range it.group.members {
						cond = conds[idx].ID
						out[idx] = we.proveCond(conds[idx], gp)
					}
				} else {
					cond = conds[it.single].ID
					out[it.single] = we.proveCond(conds[it.single], false)
				}
			}
			cond = -1
			wkObs.End("conds", fmt.Sprint(len(chunks[i])))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < par; w++ {
		wg.Add(1)
		wkObs := e.Obs.Fork()
		go func() {
			defer wg.Done()
			work(wkObs)
		}()
	}
	work(e.Obs.Fork())
	wg.Wait()

	if pe := failure.Load(); pe != nil {
		return out, pe
	}
	return out, ctx.Err()
}

// worker returns the engine of one pool worker: a prover of its own
// over e's prover cache, e's loop-entry memo, and its own crossing memo
// and fresh-variable counter, which carry over between the chunks the
// worker proves.
func (e *Engine) worker(wkObs *obs.Worker) *Engine {
	p := solver.NewShared(e.P.SharedCache())
	p.Obs = wkObs
	p.Intern = e.P.Intern
	p.Ctl = e.P.Ctl
	we := New(e.Res, p, e.Opts)
	we.Obs = wkObs
	we.entries = e.entries
	return we
}
