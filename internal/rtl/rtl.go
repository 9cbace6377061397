// Package rtl defines a small architecture-neutral register-transfer IR.
// Every machine instruction is lifted (by an architecture frontend such
// as internal/sparc's lifter) into one canonical sequence of guarded
// effects over registers, memory, condition codes, and control. The
// three downstream consumers — typestate propagation, WLP-based
// verification-condition generation, and the concrete oracle
// interpreter — share this single semantic definition, so an opcode's
// meaning is written exactly once.
//
// Semantics of an effect sequence (a parallel register transfer):
//
//   - Every operand expression is evaluated in the instruction's
//     PRE-state, in the instruction's entry register window.
//   - Window effects (SaveWindow/RestoreWindow) shift the window first;
//     an Assign with Win = +1 (or -1) then writes into the newly
//     entered window. Win = 0 writes the entry window.
//   - Register 0 (ZeroReg) is hardwired: reads yield 0 and writes are
//     discarded. The lifter emits reads/writes of register 0 faithfully
//     so consumers see the instruction's true operand structure.
package rtl

import "fmt"

// Reg is a machine register number. The interpretation (windowing,
// banks) belongs to the architecture frontend; rtl only fixes the
// zero-register convention below.
type Reg int

// ZeroReg is hardwired to zero: reads yield 0, writes are discarded.
const ZeroReg Reg = 0

// BinOp enumerates the two-operand ALU operations.
type BinOp int

const (
	Add BinOp = iota
	Sub
	And
	AndNot // a &^ b
	Or
	OrNot // a | ^b
	Xor
	XorNot // ^(a ^ b)
	ShL    // logical shift left (count masked to 5 bits)
	ShRL   // logical shift right
	ShRA   // arithmetic shift right
	MulU
	MulS
	DivU // traps on zero divisor
	DivS
)

func (op BinOp) String() string {
	names := [...]string{"add", "sub", "and", "andn", "or", "orn", "xor",
		"xnor", "shl", "shrl", "shra", "mulu", "muls", "divu", "divs"}
	if int(op) < len(names) {
		return names[op]
	}
	return fmt.Sprintf("op?%d", int(op))
}

// Expr is an operand expression. The lifter produces shallow trees:
// constants, register reads, the instruction address, and one binary
// operation over those.
type Expr interface {
	isExpr()
	String() string
}

// Const is a constant operand (sign-extended immediates; the value is
// kept as int64 so abstract consumers can fold without overflow, while
// concrete evaluation truncates to 32 bits).
type Const struct{ V int64 }

// RegX reads a register in the instruction's entry window.
type RegX struct{ R Reg }

// PC is the machine address of the current instruction plus Off (used
// by call and jump-and-link effects to materialize the return address:
// SPARC links the call's own address, RV32I the next instruction's).
type PC struct{ Off int64 }

// Bin applies a BinOp to two sub-expressions.
type Bin struct {
	Op   BinOp
	A, B Expr
}

func (Const) isExpr() {}
func (RegX) isExpr()  {}
func (PC) isExpr()    {}
func (Bin) isExpr()   {}

func (c Const) String() string { return fmt.Sprintf("%d", c.V) }
func (r RegX) String() string  { return fmt.Sprintf("r%d", int(r.R)) }
func (p PC) String() string {
	if p.Off == 0 {
		return "pc"
	}
	return fmt.Sprintf("pc%+d", p.Off)
}
func (b Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Op, b.A, b.B)
}

// Cond is a branch condition over the integer condition codes. Signed
// and unsigned comparisons are distinguished so consumers can choose
// how much information each carries.
type Cond int

const (
	CondNever Cond = iota
	CondAlways
	CondEq
	CondNe
	CondLt // signed
	CondLe
	CondGt
	CondGe
	CondLtU // unsigned (carry set)
	CondLeU
	CondGtU
	CondGeU
	CondNeg
	CondPos
	CondOverflow
	CondNoOverflow
)

func (c Cond) String() string {
	names := [...]string{"never", "always", "eq", "ne", "lt", "le", "gt",
		"ge", "ltu", "leu", "gtu", "geu", "neg", "pos", "vs", "vc"}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("cond?%d", int(c))
}

// Effect is one component of an instruction's register transfer.
type Effect interface {
	isEffect()
	String() string
}

// Assign writes Src (evaluated in the pre-state) to register Dst. Win
// selects the window relative to the instruction's entry window: +1
// after a SaveWindow in the same sequence, -1 after a RestoreWindow,
// 0 otherwise.
type Assign struct {
	Dst Reg
	Win int
	Src Expr
}

// Load reads Size bytes at Addr into Dst, zero- or sign-extending
// sub-word values.
type Load struct {
	Dst    Reg
	Addr   Expr
	Size   int
	Signed bool
}

// Store writes the low Size bytes of Src to Addr.
type Store struct {
	Src  Expr
	Addr Expr
	Size int
}

// SetCC records that the condition codes were set by computing
// (A op B); Op determines the overflow/carry rules (Add and Sub have
// arithmetic flags, the logical operations clear V and C).
type SetCC struct {
	Op   BinOp
	A, B Expr
}

// SaveWindow opens a new register window (the architecture's in/out
// overlap is the executor's concern; statically, Assigns with Win=+1
// target the new window).
type SaveWindow struct{}

// RestoreWindow returns to the previous register window.
type RestoreWindow struct{}

// Branch is a conditional pc-relative control transfer with a delay
// slot; Annul is the architecture's delay-slot annul bit.
type Branch struct {
	Cond  Cond
	Disp  int32 // word displacement from this instruction
	Annul bool
}

// Call is a pc-relative call (the return-address write is a separate
// Assign of PC in the same sequence).
type Call struct{ Disp int32 }

// Jump is an indirect control transfer to a computed address (returns;
// the link write, if any, is a separate Assign of PC).
type Jump struct{ Target Expr }

// Unsupported marks an instruction the machine model does not support.
// Executors fault; static analyses charge Code/Msg as a violation and
// forget everything about Dst (ZeroReg when no register is clobbered).
// Store marks the unmodelled instruction as one that may write memory
// (e.g. an unsupported store form), so mod-set computation stays sound.
type Unsupported struct {
	Code  string
	Msg   string
	Dst   Reg
	Store bool
}

func (Assign) isEffect()        {}
func (Load) isEffect()          {}
func (Store) isEffect()         {}
func (SetCC) isEffect()         {}
func (SaveWindow) isEffect()    {}
func (RestoreWindow) isEffect() {}
func (Branch) isEffect()        {}
func (Call) isEffect()          {}
func (Jump) isEffect()          {}
func (Unsupported) isEffect()   {}

func (a Assign) String() string {
	if a.Win != 0 {
		return fmt.Sprintf("r%d@%+d := %s", int(a.Dst), a.Win, a.Src)
	}
	return fmt.Sprintf("r%d := %s", int(a.Dst), a.Src)
}
func (l Load) String() string {
	sign := "u"
	if l.Signed {
		sign = "s"
	}
	return fmt.Sprintf("r%d := mem%d%s[%s]", int(l.Dst), l.Size, sign, l.Addr)
}
func (s Store) String() string {
	return fmt.Sprintf("mem%d[%s] := %s", s.Size, s.Addr, s.Src)
}
func (s SetCC) String() string {
	return fmt.Sprintf("cc := %s(%s, %s)", s.Op, s.A, s.B)
}
func (SaveWindow) String() string    { return "save-window" }
func (RestoreWindow) String() string { return "restore-window" }
func (b Branch) String() string {
	annul := ""
	if b.Annul {
		annul = ",a"
	}
	return fmt.Sprintf("branch%s %s .%+d", annul, b.Cond, b.Disp)
}
func (c Call) String() string { return fmt.Sprintf("call .%+d", c.Disp) }
func (j Jump) String() string { return fmt.Sprintf("jump %s", j.Target) }
func (u Unsupported) String() string {
	return fmt.Sprintf("unsupported(%s): %s", u.Code, u.Msg)
}
