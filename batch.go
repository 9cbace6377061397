package mcsafe

// BatchItem is one program+policy pair submitted to Checker.CheckAll.
type BatchItem struct {
	Prog *Program
	Spec *Spec
}

// BatchResult is the outcome of one item of a Checker.CheckAll batch;
// exactly one of Result and Err is non-nil.
type BatchResult struct {
	Result *Result
	Err    error
}
