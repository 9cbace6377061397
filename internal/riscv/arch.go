// The isa.Arch adapter for the RV32I front-end. RV32I exercises the
// architecture seam from the opposite corner of the design space to
// SPARC: no delay slots, no register windows, fused compare-and-branch
// instead of condition codes — and a memory subsystem the hardware-
// aliasing literature (arXiv:1305.6431) says may translate
// arithmetically distinct addresses inconsistently, which turns on the
// "alias" safety-condition class.

package riscv

import (
	"fmt"

	"mcsafe/internal/isa"
	"mcsafe/internal/rtl"
)

type archImpl struct{}

// Arch is the RV32I front-end as an isa.Arch.
var Arch isa.Arch = archImpl{}

func init() { isa.Register(Arch) }

var regModel = func() *isa.RegModel {
	names := make([]string, 32)
	aliases := map[string]string{"%fp": "%s0"}
	for r := 0; r < 32; r++ {
		names[r] = Reg(r).String()
		aliases[fmt.Sprintf("%%x%d", r)] = names[r]
	}
	return isa.NewRegModel(names, aliases, convention.Window)
}()

var convention = &isa.Convention{
	SP:      rtl.Reg(SP),
	FP:      rtl.Reg(S0),
	Link:    rtl.Reg(RA),
	RetReg:  rtl.Reg(A0),
	ArgRegs: []rtl.Reg{10, 11, 12, 13, 14, 15, 16, 17}, // %a0..%a7
	// A trusted call may clobber the argument, temporary, and link
	// registers; the order is the canonical havoc order and is frozen.
	CallClobbered: []rtl.Reg{10, 11, 12, 13, 14, 15, 16, 17, 5, 6, 7, 28, 29, 30, 31, 1},
	InitRegs:      []rtl.Reg{rtl.Reg(SP), rtl.Reg(S0), rtl.Reg(RA)},
	MinFrame:      16,
	StackAlign:    16,
}

func (archImpl) Name() string          { return "rv32i" }
func (archImpl) Regs() *isa.RegModel   { return regModel }
func (archImpl) Conv() *isa.Convention { return convention }
func (archImpl) Traits() isa.Traits {
	return isa.Traits{HardwareAliasing: true, ByteOrder: isa.LittleEndian}
}

func (archImpl) Assemble(src string, opts isa.AsmOptions) (*isa.Program, error) {
	return isa.Assemble(Arch, src, opts, (&parser{dataSyms: opts.DataSyms}).parse, encodeAt)
}

// Lower decodes a word and lifts it: its RTL effect sequence, its
// disassembly text and the return-idiom flag.
func (archImpl) Lower(w uint32) (isa.Insn, error) {
	i, err := Decode(w)
	if err != nil {
		return isa.Insn{}, err
	}
	return isa.Insn{RTL: Lift(i), Text: i.String(), Ret: i.IsReturn()}, nil
}
