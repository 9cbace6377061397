package riscv

import "fmt"

// Reg is an RV32I integer register number (x0..x31). Names follow the
// standard ABI mnemonics, rendered with the checker's uniform "%"
// prefix so register variables are lexically recognizable across
// architectures ("%a0" for x10, as "%o0" names SPARC r8).
type Reg uint8

// ABI register numbers.
const (
	Zero Reg = 0 // hardwired zero
	RA   Reg = 1 // return address
	SP   Reg = 2 // stack pointer
	GP   Reg = 3 // global pointer
	TP   Reg = 4 // thread pointer
	T0   Reg = 5
	S0   Reg = 8 // saved/frame pointer
	S1   Reg = 9
	A0   Reg = 10 // first argument/result
	A7   Reg = 17
	S2   Reg = 18
	T3   Reg = 28
)

var regNames = [32]string{
	"%zero", "%ra", "%sp", "%gp", "%tp", "%t0", "%t1", "%t2",
	"%s0", "%s1", "%a0", "%a1", "%a2", "%a3", "%a4", "%a5",
	"%a6", "%a7", "%s2", "%s3", "%s4", "%s5", "%s6", "%s7",
	"%s8", "%s9", "%s10", "%s11", "%t3", "%t4", "%t5", "%t6",
}

// String renders the canonical ABI name.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("%%x%d", uint8(r))
}
