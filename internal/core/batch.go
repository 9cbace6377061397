package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"mcsafe/internal/isa"
	"mcsafe/internal/policy"
)

// CheckItem is one program+policy pair for batch checking.
type CheckItem struct {
	Prog *isa.Program
	Spec *policy.Spec
	Opts Options
}

// CheckOutcome pairs a check's Result with its error; exactly one of the
// two is non-nil.
type CheckOutcome struct {
	Result *Result
	Err    error
}

// CheckAll checks many program+policy pairs concurrently with a bounded
// worker pool — the serving shape for many-user traffic, where whole
// checks rather than condition groups are the natural unit of
// parallelism. parallelism bounds the number of in-flight checks
// (0 means GOMAXPROCS). Outcomes are indexed like items.
//
// When the batch itself runs in parallel, items that leave
// Opts.Parallelism at the default 0 are checked with one Phase 5
// worker: the batch is already saturating the cores, and one
// check per core beats every check contending for every core. An
// explicit per-item Parallelism is honored as given.
func CheckAll(items []CheckItem, parallelism int) []CheckOutcome {
	return CheckAllContext(context.Background(), items, parallelism)
}

// CheckAllContext is CheckAll with cancellation: each item's check runs
// under the context (CheckContext), and items not yet started when the
// context is cancelled complete immediately with a *PhaseError.
func CheckAllContext(ctx context.Context, items []CheckItem, parallelism int) []CheckOutcome {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(items) {
		parallelism = len(items)
	}
	out := make([]CheckOutcome, len(items))
	if len(items) == 0 {
		return out
	}

	// checkOne runs one item under its own panic boundary: CheckContext
	// already contains faults inside the phases, but a panic on the
	// driver's own seams (option plumbing, outcome assembly) must still
	// charge only this item, never kill the batch worker — a worker
	// goroutine dying would silently drop every item it had yet to pull.
	checkOne := func(ctx context.Context, it CheckItem, opts Options) (oc CheckOutcome) {
		defer func() {
			if r := recover(); r != nil {
				oc = CheckOutcome{Err: &PhaseError{Phase: "batch", Err: &InternalError{
					Phase: "batch", Program: programAddress(it.Prog), Cond: -1,
					Panic: fmt.Sprint(r), Stack: debug.Stack(),
				}}}
			}
		}()
		r, err := CheckContext(ctx, it.Prog, it.Spec, opts)
		return CheckOutcome{Result: r, Err: err}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				it := items[i]
				opts := it.Opts
				if parallelism > 1 && opts.Parallelism == 0 {
					opts.Parallelism = 1
				}
				out[i] = checkOne(ctx, it, opts)
			}
		}()
	}
	wg.Wait()
	return out
}
