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

// Branch returns the instruction's branch effect, if any.
func (i Insn) Branch() (rtl.Branch, bool) {
	for _, eff := range i.RTL {
		if b, ok := eff.(rtl.Branch); ok {
			return b, true
		}
	}
	return rtl.Branch{}, false
}

// Call returns the instruction's call effect, if any.
func (i Insn) Call() (rtl.Call, bool) {
	for _, eff := range i.RTL {
		if c, ok := eff.(rtl.Call); ok {
			return c, true
		}
	}
	return rtl.Call{}, false
}

// Jump returns the instruction's indirect-jump effect, if any.
func (i Insn) Jump() (rtl.Jump, bool) {
	for _, eff := range i.RTL {
		if j, ok := eff.(rtl.Jump); ok {
			return j, true
		}
	}
	return rtl.Jump{}, false
}

// WindowDelta is +1 for a window-save instruction, -1 for a
// window-restore, 0 otherwise.
func (i Insn) WindowDelta() int {
	for _, eff := range i.RTL {
		switch eff.(type) {
		case rtl.SaveWindow:
			return 1
		case rtl.RestoreWindow:
			return -1
		}
	}
	return 0
}

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

// LabelAt returns a label naming instruction idx, preferring the
// lexically least; it returns "" if the instruction is unlabeled.
func (p *Program) LabelAt(idx int) string {
	best := ""
	for name, at := range p.Symbols {
		if at != idx {
			continue
		}
		if best == "" || name < best {
			best = name
		}
	}
	return best
}

// Disassemble renders the program, one instruction per line, with
// resolved branch targets shown as absolute indices.
func (p *Program) Disassemble() string {
	// The least label at each index, as LabelAt would give, in one pass.
	labels := make([]string, len(p.Insns))
	for name, at := range p.Symbols {
		if at >= 0 && at < len(labels) && (labels[at] == "" || name < labels[at]) {
			labels[at] = name
		}
	}
	var b strings.Builder
	for idx, insn := range p.Insns {
		if lbl := labels[idx]; lbl != "" {
			fmt.Fprintf(&b, "%s:\n", lbl)
		}
		text := insn.Text
		if br, ok := insn.Branch(); ok {
			text = strings.Replace(text, fmt.Sprintf(".%+d", br.Disp),
				fmt.Sprintf("@%d", idx+int(br.Disp)), 1)
		} else if c, ok := insn.Call(); ok {
			text = strings.Replace(text, fmt.Sprintf(".%+d", c.Disp),
				fmt.Sprintf("@%d", idx+int(c.Disp)), 1)
		}
		fmt.Fprintf(&b, "%4d: %08x  %s\n", idx, p.Words[idx], text)
	}
	return b.String()
}
