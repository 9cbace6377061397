// Package sparc models the SPARC V8 instruction set: registers (including
// register windows), the instructions the safety checker understands,
// the mnemonic parser the shared two-pass assembler (isa.Assemble) hands
// each lexed line when authoring test inputs, and a binary encoder and
// decoder for the three 32-bit instruction formats. The safety checker
// proper consumes decoded machine words, never assembly text.
package sparc

import "fmt"

// Reg is a SPARC integer register number, 0..31:
//
//	%g0-%g7 =  0..7   globals (%g0 is hardwired to zero)
//	%o0-%o7 =  8..15  outs (%o6 is %sp, %o7 holds the call return address)
//	%l0-%l7 = 16..23  locals
//	%i0-%i7 = 24..31  ins (%i6 is %fp, %i7 holds the caller's PC)
type Reg uint8

// Well-known registers.
const (
	G0 Reg = 0
	O0 Reg = 8
	O7 Reg = 15
	SP Reg = 14 // %o6
	FP Reg = 30 // %i6
	I0 Reg = 24
	I7 Reg = 31
	L0 Reg = 16
)

// IsGlobal reports whether r is one of %g0-%g7, which are not shifted by
// register windows.
func (r Reg) IsGlobal() bool { return r < 8 }

// IsOut reports whether r is one of %o0-%o7.
func (r Reg) IsOut() bool { return r >= 8 && r < 16 }

// IsLocal reports whether r is one of %l0-%l7.
func (r Reg) IsLocal() bool { return r >= 16 && r < 24 }

// IsIn reports whether r is one of %i0-%i7.
func (r Reg) IsIn() bool { return r >= 24 }

// regNames caches the 32 valid register names: Reg.String sits on the
// wlp hot path (register variable naming), where a formatter call per
// lookup is measurable.
var regNames = func() (names [32]string) {
	for r := Reg(0); r < 32; r++ {
		switch r {
		case SP:
			names[r] = "%sp"
		case FP:
			names[r] = "%fp"
		default:
			names[r] = fmt.Sprintf("%%%c%d", "goli"[r/8], r%8)
		}
	}
	return
}()

func (r Reg) String() string {
	if r > 31 {
		return fmt.Sprintf("%%r%d?", uint8(r))
	}
	return regNames[r]
}
