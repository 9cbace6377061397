package conform

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mcsafe"
	"mcsafe/internal/gen"
)

// Options tunes a conformance run.
type Options struct {
	// Parallelism is the fixture-level worker count (0 = GOMAXPROCS).
	// Each fixture is checked with one Phase 5 worker, so the fixture
	// pool is the only source of concurrency and outcomes are identical
	// at every setting.
	Parallelism int
	// Budget is the per-fixture resource envelope (zero = ungoverned).
	// A tripped budget surfaces as a "resource" code in the outcome and
	// therefore as a ground-truth disagreement — conformance runs are
	// expected to give the checker room to finish.
	Budget mcsafe.Budget
}

// Outcome is one checked fixture.
type Outcome struct {
	Fixture *gen.Fixture
	Norm    Normalized
	// Err reports a build or checker failure (nil for a completed
	// check, even an unsafe one).
	Err     error
	Elapsed time.Duration
}

// Run checks every fixture and returns outcomes in fixture order.
// Fixtures are distributed over a worker pool; order and content of the
// result are independent of scheduling.
func Run(ctx context.Context, fixtures []*gen.Fixture, opt Options) []Outcome {
	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(fixtures) {
		workers = len(fixtures)
	}
	out := make([]Outcome, len(fixtures))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(fixtures) {
					return
				}
				out[i] = runOne(ctx, fixtures[i], opt)
			}
		}()
	}
	wg.Wait()
	return out
}

func runOne(ctx context.Context, f *gen.Fixture, opt Options) Outcome {
	start := time.Now()
	o := Outcome{Fixture: f}
	spec, err := mcsafe.ParseSpec(f.Spec)
	if err != nil {
		o.Err = fmt.Errorf("%s: spec: %w", f.Name, err)
		return o
	}
	prog, err := mcsafe.Assemble(f.Asm, spec, f.Entry)
	if err != nil {
		o.Err = fmt.Errorf("%s: assemble: %w", f.Name, err)
		return o
	}
	c := mcsafe.New(mcsafe.WithParallelism(1), mcsafe.WithBudget(opt.Budget))
	res, err := c.Check(ctx, prog, spec)
	if err != nil {
		o.Err = fmt.Errorf("%s: check: %w", f.Name, err)
		return o
	}
	o.Norm = Normalize(f.Name, res)
	o.Elapsed = time.Since(start)
	return o
}

// GroundTruth verifies the outcome against the fixture's constructed
// ground truth: safe fixtures must check safe; planted fixtures must
// check unsafe with the planted code among the reported codes. A nil
// return means the checker and the generator agree.
func (o Outcome) GroundTruth() error {
	if o.Err != nil {
		return o.Err
	}
	f := o.Fixture
	if f.WantSafe {
		if o.Norm.Verdict != "safe" {
			return fmt.Errorf("%s: constructed safe, checker reports %v", f.Name, o.Norm.Codes)
		}
		return nil
	}
	if o.Norm.Verdict != "unsafe" {
		return fmt.Errorf("%s: planted %s in %s, checker reports safe", f.Name, f.WantCode, f.PlantUnit)
	}
	for _, c := range o.Norm.Codes {
		if c == f.WantCode {
			return nil
		}
	}
	return fmt.Errorf("%s: planted %s in %s, checker reports %v", f.Name, f.WantCode, f.PlantUnit, o.Norm.Codes)
}
