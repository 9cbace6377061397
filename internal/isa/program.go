package isa

import (
	"fmt"
	"strings"

	"mcsafe/internal/rtl"
)

// Insn is one decoded instruction as the ISA-neutral pipeline sees it:
// its semantics as RTL effects (the single source of instruction
// meaning), its disassembly text, and the one structural fact RTL does
// not carry — whether the front-end classifies it as a procedure
// return.
type Insn struct {
	// RTL is the instruction's canonical effect sequence, produced by
	// the front-end's lifter. Nil marks an undecodable word.
	RTL []rtl.Effect
	// Text is the instruction's disassembly (branch displacements in
	// relative ".%+d" form; Program.Disassemble resolves them).
	Text string
	// Ret marks the architecture's return idiom (SPARC: a jmpl through
	// the return-address register; RV32I: jalr x0, 0(ra)).
	Ret bool
}

// String renders the instruction's disassembly.
func (i Insn) String() string { return i.Text }

// Program is an assembled (or externally supplied) machine-code program
// in ISA-neutral form: the raw words, the front-end's decoded+lifted
// view, and the side tables a loader would provide.
type Program struct {
	// Arch is the front-end that produced the program.
	Arch Arch
	// Words are the machine words, the checker's real input.
	Words []uint32
	// Insns is the decoded view of Words.
	Insns []Insn
	// Base is the virtual address of Words[0].
	Base uint32
	// Symbols maps every label to its instruction index.
	Symbols map[string]int
	// Procs lists labels that are procedure entry points (call targets
	// plus the program entry), sorted by instruction index, one per
	// entry: the least label at its index.
	Procs []string
	// Entry is the instruction index where execution begins.
	Entry int
	// DataSyms maps data-symbol names to their virtual addresses, as a
	// loader's relocation/symbol table would.
	DataSyms map[string]uint32
	// SrcLines maps instruction index to source line (0 when unknown).
	SrcLines []int
}

// AddrOf returns the virtual address of instruction idx.
func (p *Program) AddrOf(idx int) uint32 { return p.Base + uint32(idx)*4 }

// IndexOf returns the instruction index of a virtual address.
func (p *Program) IndexOf(addr uint32) (int, bool) {
	if addr < p.Base || (addr-p.Base)%4 != 0 {
		return 0, false
	}
	idx := int((addr - p.Base) / 4)
	if idx >= len(p.Insns) {
		return 0, false
	}
	return idx, true
}

// ProcEntry returns the instruction index of a procedure label.
func (p *Program) ProcEntry(name string) (int, bool) {
	idx, ok := p.Symbols[name]
	return idx, ok
}

// Labels returns the least label at every index a symbol names, in one
// pass over the symbol table. It is the one rule that names procedures,
// extern call targets, host calls and disassembly lines.
func (p *Program) Labels() map[int]string {
	least := make(map[int]string, len(p.Symbols))
	for name, idx := range p.Symbols {
		if cur, ok := least[idx]; !ok || name < cur {
			least[idx] = name
		}
	}
	return least
}

// Disassemble renders the program, one instruction per line, with
// resolved branch targets shown as absolute indices.
func (p *Program) Disassemble() string {
	labels := p.Labels()
	var b strings.Builder
	for idx, insn := range p.Insns {
		if lbl := labels[idx]; lbl != "" {
			fmt.Fprintf(&b, "%s:\n", lbl)
		}
		text := insn.Text
		if disp, ok := relDisp(insn); ok {
			text = strings.Replace(text, fmt.Sprintf(".%+d", disp),
				fmt.Sprintf("@%d", idx+int(disp)), 1)
		}
		fmt.Fprintf(&b, "%4d: %08x  %s\n", idx, p.Words[idx], text)
	}
	return b.String()
}

// relDisp is the word displacement of an instruction's pc-relative
// control transfer: a branch or a call.
func relDisp(insn Insn) (int32, bool) {
	sh, _ := rtl.ShapeOf(insn.RTL)
	switch c := sh.Ctl.(type) {
	case rtl.Branch:
		return c.Disp, true
	case rtl.Call:
		return c.Disp, true
	}
	return 0, false
}
