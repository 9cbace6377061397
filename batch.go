package mcsafe

import (
	"mcsafe/internal/core"
	"mcsafe/internal/induction"
)

// BatchItem is one program+policy pair submitted to Checker.CheckAll.
type BatchItem struct {
	Prog *Program
	Spec *Spec
	Opts Options
}

// BatchResult is the outcome of one item of a Checker.CheckAll batch;
// exactly one of Result and Err is non-nil.
type BatchResult struct {
	Result *Result
	Err    error
}

// coreOptions lowers the public Options to the internal driver's.
func coreOptions(opts Options) core.Options {
	return core.Options{
		Induction: induction.Options{
			MaxIter:               opts.MaxInductionIterations,
			DisableGeneralization: opts.DisableGeneralization,
			DisableDNF:            opts.DisableDNF,
		},
		Parallelism: opts.Parallelism,
		Budget:      opts.Budget,
	}
}
