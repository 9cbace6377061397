// The isa.Arch adapter: everything outside this package (and the
// differential-test oracle) reaches SPARC only through the registered
// architecture — decode, lift, register naming, and the calling
// convention are exposed here and nowhere else.

package sparc

import (
	"mcsafe/internal/isa"
	"mcsafe/internal/rtl"
)

type archImpl struct{}

// Arch is the SPARC front-end as an isa.Arch.
var Arch isa.Arch = archImpl{}

func init() { isa.Register(Arch) }

var regModel = func() *isa.RegModel {
	names := make([]string, 32)
	for r := 0; r < 32; r++ {
		names[r] = Reg(r).String()
	}
	// %o6 and %i6 are the numbered spellings of %sp and %fp.
	aliases := map[string]string{"%o6": "%sp", "%i6": "%fp"}
	return isa.NewRegModel(names, aliases, convention.Window)
}()

var convention = &isa.Convention{
	SP:      rtl.Reg(SP),
	FP:      rtl.Reg(FP),
	Link:    rtl.Reg(O7),
	RetReg:  rtl.Reg(O0),
	ArgRegs: []rtl.Reg{8, 9, 10, 11, 12, 13}, // %o0..%o5
	// A trusted call may clobber the out and volatile global registers.
	// The order — outs then globals — is the canonical havoc order of
	// the verifier and is frozen (fresh-variable naming is part of the
	// verdict rendering).
	CallClobbered: []rtl.Reg{8, 9, 10, 11, 12, 13, 1, 2, 3, 4, 5},
	InitRegs:      []rtl.Reg{rtl.Reg(SP), rtl.Reg(FP), rtl.Reg(O7), rtl.Reg(I7)},
	MinFrame:      64,
	StackAlign:    8,
	Window: isa.WindowLayout{
		Out: rtl.Reg(O0), Local: rtl.Reg(L0), In: rtl.Reg(I0),
		Size: 8, MaxDepth: 8,
	},
}

func (archImpl) Name() string          { return "sparc" }
func (archImpl) Regs() *isa.RegModel   { return regModel }
func (archImpl) Conv() *isa.Convention { return convention }
func (archImpl) Traits() isa.Traits {
	return isa.Traits{DelaySlots: true, ByteOrder: isa.BigEndian}
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
