// Resource governance and fault isolation for the checking driver: the
// Budget envelope threaded into the Phase 5 prover, and the structured
// error a contained panic is converted into. The design is fail-closed
// throughout — exhausting a budget degrades verdicts to conservative
// "resource" rejections, and an internal fault rejects the one program
// it hit instead of killing the process or the batch.

package core

import (
	"encoding/hex"
	"fmt"
	"time"

	"mcsafe/internal/isa"
)

// Budget is the resource envelope of one check. The zero Budget
// disables governance entirely: the solver's hot loops skip every
// check and verdicts are bit-identical to an ungoverned run.
//
// Exhaustion is never an acceptance: a condition whose proof the
// envelope cuts short is reported as an unproven violation with the
// stable "resource" code, so callers can distinguish "rejected on the
// merits" from "rejected for lack of budget" and re-run with a larger
// envelope.
type Budget struct {
	// Deadline bounds the whole check's wall clock (0 = none). The
	// prover consults it inside its elimination and enumeration loops,
	// so even a single pathological query is interrupted mid-proof.
	Deadline time.Duration
	// SolverSteps bounds the total solver work of the check (0 =
	// unlimited), counted in governance ticks: eliminations, residue
	// enumeration leaves, and clause-folding rounds. The budget is
	// shared across all of a parallel check's workers.
	SolverSteps int64
	// CondTimeout bounds each condition's proof wall clock (0 = none).
	// A condition that exceeds it is abandoned with a resource verdict;
	// the rest of the check continues, each condition under a fresh
	// timeout.
	CondTimeout time.Duration
}

// Enabled reports whether any bound is set.
func (b Budget) Enabled() bool { return b != (Budget{}) }

// InternalError is a panic contained at a checking boundary (a phase
// of the driver, a proving-pool worker, or a batch item), converted
// into a structured, reportable error. It always rejects: the program
// it names gets no Result, and in a batch only that item is charged.
type InternalError struct {
	// Phase is the driver phase that was running ("prepare",
	// "typestate", "annotate", "global").
	Phase string `json:"phase"`
	// Program is the checked program's content address in hex — the
	// digest Program.Fingerprint and the verdict store key render — so a
	// crash report names the poisoned input the way the store does,
	// without embedding it ("" for a nil program).
	Program string `json:"program"`
	// Cond is the ID of the global condition being proved when the
	// panic fired, or -1 when it fired outside condition proving.
	Cond int `json:"cond"`
	// Panic is the rendered panic value.
	Panic string `json:"panic"`
	// Stack is the panicking goroutine's stack.
	Stack []byte `json:"-"`
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("mcsafe: internal error during %s phase (program %s, cond %d): %s",
		e.Phase, e.Program, e.Cond, e.Panic)
}

// programAddress renders prog's content address (isa.Fingerprint) in
// hex for InternalError.Program.
func programAddress(prog *isa.Program) string {
	if prog == nil {
		return ""
	}
	fp := isa.Fingerprint(prog)
	return hex.EncodeToString(fp[:])
}
