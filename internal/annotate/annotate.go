// Package annotate implements Phase 3 of the safety-checking analysis
// (Section 4.3): it traverses the untrusted code and attaches to each
// instruction occurrence its local safety preconditions (checked here,
// against typestate information alone, together with Phase 4) and its
// global safety preconditions (linear-constraint formulas handed to the
// verification phase), plus assertions — facts derived from the results
// of typestate propagation that serve as hypotheses for the prover.
package annotate

import (
	"fmt"

	"mcsafe/internal/cfg"
	"mcsafe/internal/expr"
	"mcsafe/internal/isa"
	"mcsafe/internal/localcheck"
	"mcsafe/internal/propagate"
	"mcsafe/internal/rtl"
	"mcsafe/internal/types"
	"mcsafe/internal/typestate"
)

// Violation codes: the stable machine-readable classification of every
// safety violation the checker reports. Tools match on these — never on
// description text, which is free to change.
const (
	CodeOOB     = "oob"     // array/pointer access outside its object's bounds
	CodeAlign   = "align"   // misaligned address
	CodeUninit  = "uninit"  // use of an uninitialized or unusable value
	CodeNullPtr = "nullptr" // possible null-pointer dereference
	CodeStack   = "stack"   // stack-manipulation safety (frame size/alignment)
	CodePolicy  = "policy"  // access the host policy does not grant
	CodePrecond = "precond" // unmet trusted-call argument state or precondition
	// CodeAlias marks an address that is not provably alias-stable: on
	// hardware whose address translation may map arithmetically distinct
	// addresses inconsistently (arXiv:1305.6431), safety requires every
	// memory address to be computed in a canonical base+offset form whose
	// base is a declared object address. Only emitted on architectures
	// with the HardwareAliasing trait.
	CodeAlias = "alias"
	// CodeResource marks a condition left unproven because the check's
	// resource envelope (deadline, solver step budget, or per-condition
	// timeout) was exhausted — a conservative rejection, never an
	// acceptance.
	CodeResource = "resource"
)

// GlobalCond is one global safety precondition: a formula that must hold
// whenever control reaches the node.
type GlobalCond struct {
	ID   int
	Node int
	// Code is the stable violation code charged when the condition
	// cannot be proved (one of the Code* constants).
	Code string
	Desc string
	// F is the safety predicate.
	F expr.Formula
	// Facts are assertions derived from typestate propagation, valid at
	// the node; the verifier proves Facts -> F.
	Facts expr.Formula
	// AfterNode places the condition after the node executes (used for
	// trusted-call preconditions, which must hold once the delay slot
	// has run).
	AfterNode bool
}

// Violation is a failed local safety precondition or a structural
// problem found during annotation.
type Violation struct {
	Node int
	// Code is the stable violation code (one of the Code* constants).
	Code string
	Desc string
}

// Annotations is the output of Phases 3 and 4.
type Annotations struct {
	Res   *propagate.Result
	Conds []*GlobalCond
	// LocalViolations are local safety preconditions that do not hold.
	LocalViolations []Violation
	// LocalChecks counts local predicates evaluated (for reporting).
	LocalChecks int
}

type annotator struct {
	res  *propagate.Result
	out  *Annotations
	rm   *isa.RegModel
	conv *isa.Convention
	// aliasing is the HardwareAliasing trait of the program's
	// architecture: when set, every memory access additionally carries an
	// alias-stability condition.
	aliasing bool
}

// Run performs annotation and local verification.
func Run(res *propagate.Result) *Annotations {
	arch := res.G.Prog.Arch
	a := &annotator{
		res: res, out: &Annotations{Res: res},
		rm:       arch.Regs(),
		conv:     arch.Conv(),
		aliasing: arch.Traits().HardwareAliasing,
	}
	for _, node := range res.G.Nodes {
		if res.In[node.ID].Top {
			continue // unreachable
		}
		a.visit(node)
	}
	// Propagation-time issues are violations too.
	for _, issue := range res.Issues {
		a.out.LocalViolations = append(a.out.LocalViolations,
			Violation{Node: issue.Node, Code: issue.Code, Desc: issue.Msg})
	}
	return a.out
}

func (a *annotator) fail(node *cfg.Node, code, format string, args ...interface{}) {
	a.out.LocalViolations = append(a.out.LocalViolations, Violation{
		Node: node.ID, Code: code, Desc: fmt.Sprintf(format, args...),
	})
}

func (a *annotator) check(node *cfg.Node, code string, ok bool, format string, args ...interface{}) {
	a.out.LocalChecks++
	if !ok {
		a.fail(node, code, format, args...)
	}
}

func (a *annotator) cond(node *cfg.Node, code, desc string, f expr.Formula, facts expr.Formula, after bool) {
	if _, isTrue := expr.Simplify(f).(expr.TrueF); isTrue {
		return
	}
	gc := &GlobalCond{
		ID: len(a.out.Conds), Node: node.ID, Code: code, Desc: desc,
		F: f, Facts: facts, AfterNode: after,
	}
	a.out.Conds = append(a.out.Conds, gc)
}

func (a *annotator) regTS(node *cfg.Node, reg rtl.Reg, in typestate.Store) typestate.Typestate {
	if reg == rtl.ZeroReg {
		return typestate.Typestate{
			Type: types.Int32Type, State: typestate.InitState,
			Access: typestate.PermO, Known: true,
		}
	}
	return in.Get(a.rm.Loc(reg, node.Depth))
}

// operands pulls the node's assignment source apart: the operand
// structure of an occurrence is read off its effect shape, never the
// architecture's instruction encoding.
func operands(node *cfg.Node) (bin rtl.Bin, hasBin bool) {
	if a := node.Shape.Assign(); a != nil {
		bin, hasBin = a.Src.(rtl.Bin)
	}
	return bin, hasBin
}

// regOf unwraps a register read (ZeroReg, false for anything else).
func regOf(e rtl.Expr) (rtl.Reg, bool) {
	x, ok := e.(rtl.RegX)
	if !ok {
		return rtl.ZeroReg, false
	}
	return x.R, true
}

func (a *annotator) visit(node *cfg.Node) {
	res := a.res
	in := res.In[node.ID]
	bin, hasBin := operands(node)

	switch res.Kind[node.ID] {
	case propagate.KindScalarOp, propagate.KindCompare:
		a.checkOperands(node, bin, hasBin, in)

	case propagate.KindCopy:
		// mov/set: the source value is examined and copied, which
		// requires the o permission (Section 2).
		if hasBin && bin.Op == rtl.Or {
			if r, ok := regOf(bin.B); ok && r != rtl.ZeroReg {
				ts := a.regTS(node, r, in)
				a.check(node, CodeUninit, localcheck.Operable(ts),
					"use of unusable value in %s (%v)", a.rm.Name(r), ts)
			}
		}

	case propagate.KindArrayIndex:
		a.checkOperands(node, bin, hasBin, in)
		if !hasBin {
			return
		}
		// Table 2, row 2: null ∉ S(rs) and inbounds(sizeof(t), 0, n, Opnd).
		base, _ := regOf(bin.A)
		idx, _ := regOf(bin.B)
		baseTS := a.regTS(node, base, in)
		if baseTS.Type == nil || !baseTS.Type.IsPointer() {
			baseTS = a.regTS(node, idx, in)
			base, idx = idx, base
		}
		if baseTS.Type.Kind == 0 {
			return
		}
		baseVar := a.rm.Var(base, node.Depth)
		facts := a.pointerFacts(baseVar, baseTS)
		var idxE expr.LinExpr
		if c, isImm := bin.B.(rtl.Const); isImm {
			idxE = expr.Constant(c.V)
		} else {
			idxE = expr.V(a.rm.Var(idx, node.Depth))
		}
		if baseTS.Type.Elem == nil {
			return
		}
		size := int64(baseTS.Type.Elem.Size())
		bound := boundExpr(baseTS.Type.N, size)
		if baseTS.Type.Kind == types.ArrayIn {
			// Pointer arithmetic on an interior pointer cannot be
			// bounds-checked against the (single) summary location; the
			// paper's analysis has the same limitation (Section 8).
			a.cond(node, CodeOOB, "interior-pointer arithmetic", expr.F(), facts, false)
			return
		}
		if baseTS.State.MayNull {
			a.cond(node, CodeNullPtr, "null-pointer check", expr.NeExpr(expr.V(baseVar), expr.Constant(0)), facts, false)
		}
		if bin.Op == rtl.Sub {
			idxE = idxE.Scale(-1)
		}
		a.cond(node, CodeOOB, "array lower bound", expr.GeExpr(idxE, expr.Constant(0)), facts, false)
		a.cond(node, CodeOOB, "array upper bound", expr.LtExpr(idxE, bound), facts, false)
		a.cond(node, CodeAlign, "address alignment",
			expr.Divides(size, idxE), facts, false)

	case propagate.KindPtrOffset:
		if !hasBin {
			return
		}
		rs1, ok := regOf(bin.A)
		if !ok {
			return
		}
		ts := a.regTS(node, rs1, in)
		if rs1 != a.conv.FP && rs1 != a.conv.SP {
			a.check(node, CodeUninit, localcheck.Operable(ts),
				"pointer-offset on unusable value in %s (%v)", a.rm.Name(rs1), ts)
		}

	case propagate.KindLoad, propagate.KindStore:
		a.visitMem(node, in)

	case propagate.KindCall:
		a.visitCall(node)

	case propagate.KindSave:
		// Stack-manipulation safety: a save must allocate at least the
		// architecture's minimum frame (on SPARC the 64-byte register-save
		// area plus space for the hidden parameter and outgoing arguments)
		// and keep the stack aligned to the convention's stack alignment.
		var imm int64
		isImm := false
		if hasBin {
			if c, ok := bin.B.(rtl.Const); ok {
				imm, isImm = c.V, true
			}
		}
		if !isImm {
			a.fail(node, CodeStack, "save with register-sized frame is not checkable")
			return
		}
		a.check(node, CodeStack, imm <= -int64(a.conv.MinFrame), "save allocates too small a frame (%d)", imm)
		a.check(node, CodeStack, imm%int64(a.conv.StackAlign) == 0, "save misaligns the stack (%d)", imm)
		if fr := a.res.Frames[node.Proc]; fr != nil {
			a.check(node, CodeStack, int(-imm) >= fr.Size,
				"save allocates %d bytes, frame annotation requires %d", -imm, fr.Size)
		}
	}
}

func (a *annotator) checkOperands(node *cfg.Node, bin rtl.Bin, hasBin bool, in typestate.Store) {
	if !hasBin {
		return
	}
	if r, ok := regOf(bin.A); ok && r != rtl.ZeroReg {
		ts := a.regTS(node, r, in)
		a.check(node, CodeUninit, localcheck.Operable(ts),
			"use of uninitialized or unusable value in %s (%v)", a.rm.Name(r), ts)
	}
	if r, ok := regOf(bin.B); ok && r != rtl.ZeroReg {
		ts := a.regTS(node, r, in)
		a.check(node, CodeUninit, localcheck.Operable(ts),
			"use of uninitialized or unusable value in %s (%v)", a.rm.Name(r), ts)
	}
}

// pointerFacts derives assertions about a pointer register from its
// typestate: non-nullness and alignment of the address it holds.
func (a *annotator) pointerFacts(baseVar expr.Var, ts typestate.Typestate) expr.Formula {
	var facts []expr.Formula
	if ts.State.Kind != typestate.StatePointsTo {
		return expr.T()
	}
	if !ts.State.MayNull {
		facts = append(facts, expr.GeExpr(expr.V(baseVar), expr.Constant(1)))
	}
	// Alignment: every possible referent (loc, off) implies
	// align(loc) | (base - off). The fact must hold for whichever
	// referent the pointer has, so use the gcd over referents, and only
	// when the offsets agree modulo it.
	al := 0
	off := -1
	consistent := true
	for _, ref := range ts.State.Set {
		loc, ok := a.res.Ini.World.Lookup(ref.Loc)
		if !ok || loc.Align <= 1 {
			consistent = false
			break
		}
		al = gcd(al, loc.Align)
		if off == -1 {
			off = ref.Off
		}
	}
	if consistent && al > 1 && off >= 0 {
		for _, ref := range ts.State.Set {
			if ref.Off%al != off%al {
				consistent = false
			}
		}
		if consistent && len(ts.State.Set) > 0 {
			facts = append(facts,
				expr.Divides(int64(al), expr.V(baseVar).AddConst(int64(-off))))
		}
	}
	return expr.Conj(facts...)
}

func gcd(a, b int) int {
	if a == 0 {
		return b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// boundExpr returns size * n as a linear expression: a constant when the
// array bound is constant, or size * <symbol> when symbolic.
func boundExpr(b types.Bound, size int64) expr.LinExpr {
	if b.IsConst() {
		return expr.Constant(size * b.Const)
	}
	return expr.Term(size, expr.Var(b.Name))
}
