// The one assembler driver and the one loader. A front-end supplies a
// line parser, an encoder and Arch.Lower; label placement, symbol
// tables, source maps, entry resolution and procedure discovery are the
// same for every instruction set and live here.

package isa

import (
	"fmt"
	"sort"
	"strings"

	"mcsafe/internal/rtl"
)

// DefaultBase is the virtual address of the first instruction when the
// caller names no base.
const DefaultBase uint32 = 0x10000

// AsmOptions configures assembly of a source program.
type AsmOptions struct {
	// Base virtual address for the first instruction (DefaultBase if 0).
	Base uint32
	// DataSyms assigns virtual addresses to data symbols referenced by
	// address-formation idioms ("set sym,%rd", "la rd,sym").
	DataSyms map[string]uint32
	// Entry names the entry label; defaults to the first instruction.
	Entry string
	// Externs names call targets defined outside the program (trusted
	// host functions); each is assigned a slot past the last
	// instruction, as a linker would resolve an external symbol.
	Externs map[string]bool
}

// Native is a front-end's parsed instruction as the assembler driver
// sees it: the label it refers to ("" if none) and its source line.
type Native interface {
	Ref() (label string, line int)
}

// Assemble runs the two-pass assembler over source text. parse turns
// one line into its leading labels and the instructions it expands to;
// encode turns an instruction whose label resolved to word displacement
// disp (0 when it names none) into its machine word. Every word is then
// lowered through arch.Lower, so Program.Insns is exactly what a checker
// sees when handed the binary.
func Assemble[I Native](arch Arch, src string, opts AsmOptions,
	parse func(text string, line int) ([]string, []I, error),
	encode func(insn I, disp int32) (uint32, error)) (*Program, error) {
	var insns []I
	labels := make(map[string]int)
	var pending []string
	for lineNo, text := range strings.Split(src, "\n") {
		lbls, parsed, err := parse(text, lineNo+1)
		if err != nil {
			return nil, err
		}
		pending = append(pending, lbls...)
		if len(parsed) == 0 {
			continue
		}
		for _, l := range pending {
			if _, dup := labels[l]; dup {
				return nil, fmt.Errorf("line %d: duplicate label %q", lineNo+1, l)
			}
			labels[l] = len(insns)
		}
		pending = pending[:0]
		insns = append(insns, parsed...)
	}
	// Trailing labels refer past the last instruction.
	for _, l := range pending {
		labels[l] = len(insns)
	}
	if len(insns) == 0 {
		return nil, fmt.Errorf("%s: empty program", arch.Name())
	}
	// External symbols resolve to slots past the last instruction, in
	// name order so that identical source always assembles to identical
	// symbol tables and words (the verdict store's content addresses
	// depend on this).
	externs := make([]string, 0, len(opts.Externs))
	for name := range opts.Externs {
		externs = append(externs, name)
	}
	sort.Strings(externs)
	for _, name := range externs {
		if _, defined := labels[name]; !defined {
			labels[name] = len(insns) + len(labels)
		}
	}

	n := len(insns)
	p := &Program{
		Arch:     arch,
		Words:    make([]uint32, n),
		Insns:    make([]Insn, n),
		Base:     opts.Base,
		Symbols:  labels,
		DataSyms: opts.DataSyms,
		SrcLines: make([]int, n),
	}
	if p.Base == 0 {
		p.Base = DefaultBase
	}
	for idx, insn := range insns {
		label, line := insn.Ref()
		p.SrcLines[idx] = line
		var disp int32
		if label != "" {
			tgt, ok := labels[label]
			if !ok {
				return nil, fmt.Errorf("line %d: undefined label %q", line, label)
			}
			disp = int32(tgt - idx)
		}
		w, err := encode(insn, disp)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		p.Words[idx] = w
		if p.Insns[idx], err = arch.Lower(w); err != nil {
			return nil, fmt.Errorf("%s: internal round-trip failure: word %d: %v", arch.Name(), idx, err)
		}
	}
	if opts.Entry != "" {
		e, ok := labels[opts.Entry]
		if !ok {
			return nil, fmt.Errorf("%s: entry label %q not defined", arch.Name(), opts.Entry)
		}
		p.Entry = e
	}
	p.nameProcs(false)
	return p, nil
}

// FromWords builds a Program from raw machine words decoded by arch,
// the checker's binary-first entry point: a base address (DefaultBase if
// 0) plus optional loader tables. symbols maps labels to instruction
// indexes and is copied, never written; a procedure it leaves unnamed is
// named proc_<index> in the program's own table.
func FromWords(arch Arch, words []uint32, base uint32, symbols map[string]int, dataSyms map[string]uint32) (*Program, error) {
	if base == 0 {
		base = DefaultBase
	}
	p := &Program{
		Arch:     arch,
		Words:    append([]uint32(nil), words...),
		Insns:    make([]Insn, len(words)),
		Base:     base,
		Symbols:  make(map[string]int, len(symbols)+1),
		DataSyms: dataSyms,
		SrcLines: make([]int, len(words)),
	}
	for name, idx := range symbols {
		p.Symbols[name] = idx
	}
	for idx, w := range words {
		insn, err := arch.Lower(w)
		if err != nil {
			return nil, fmt.Errorf("word %d: %w", idx, err)
		}
		p.Insns[idx] = insn
	}
	p.nameProcs(true)
	return p, nil
}

// nameProcs fills Procs: the entry and every call target inside the
// program (each instruction's rtl.Call effect), in index order, each
// named by the least label at its index. The names are read from the
// words, Entry and Symbols only, all of which the fingerprint covers, so
// one content address always names its procedures alike. An unlabeled
// procedure is left out, or, when mint is set (bare words), named
// proc_<index> and added to Symbols.
func (p *Program) nameProcs(mint bool) {
	entries := map[int]bool{p.Entry: true}
	for idx, insn := range p.Insns {
		sh, _ := rtl.ShapeOf(insn.RTL)
		if c, ok := sh.Ctl.(rtl.Call); ok {
			if tgt := idx + int(c.Disp); tgt >= 0 && tgt < len(p.Insns) {
				entries[tgt] = true
			}
		}
	}
	idxs := make([]int, 0, len(entries))
	for idx := range entries {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	labels := p.Labels()
	for _, idx := range idxs {
		name := labels[idx]
		if name == "" {
			if !mint {
				continue
			}
			name = fmt.Sprintf("proc_%d", idx)
			p.Symbols[name] = idx
		}
		p.Procs = append(p.Procs, name)
	}
}
