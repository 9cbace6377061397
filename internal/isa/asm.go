// The one assembler driver and the one loader. A front-end supplies a
// parser for lexed lines, an encoder and Arch.Lower; line lexing,
// register spelling, number syntax, label placement, symbol tables,
// source maps, entry resolution and procedure discovery are the same
// for every instruction set and live here.

package isa

import (
	"fmt"
	"sort"
	"strconv"
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
// sees it: Ref names the label it refers to ("" if none).
type Native interface {
	Ref() string
}

// Line is one source line as Assemble hands it to a front-end: its
// mnemonic (lower-cased) and its operands. Its methods read an operand
// one way for every front-end. A failed read yields a zero value and
// records the line's first error, which Assemble reports with the line
// number, so a front-end reads operands without checking each.
type Line struct {
	Mnemonic string
	Args     []string
	regs     *RegModel
	err      error
}

// Fail records an error in the line's operands (the first one wins).
func (l *Line) Fail(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf(format, args...)
	}
}

// Want records an error unless the line has exactly n operands.
func (l *Line) Want(n int) bool {
	if len(l.Args) != n {
		l.Fail("%s expects %d operands, got %d", l.Mnemonic, n, len(l.Args))
		return false
	}
	return true
}

// Reg reads a register named in the architecture's RegModel.
func (l *Line) Reg(s string) rtl.Reg {
	r, ok := l.regs.Parse(s)
	if !ok {
		l.Fail("bad register %q", s)
	}
	return r
}

// Num reads a number in Go integer syntax (decimal, 0x, 0o, 0b or a
// leading 0 for octal), signed or unsigned 32-bit.
func (l *Line) Num(s string) int32 {
	v, err := strconv.ParseInt(s, 0, 64)
	switch {
	case err != nil:
		l.Fail("bad number %q", s)
	case v < -(1<<31) || v > 1<<32-1:
		l.Fail("number %q out of 32-bit range", s)
	}
	return int32(v)
}

// Label reads a label reference.
func (l *Line) Label(s string) string {
	if !isLabel(s) {
		l.Fail("bad label %q", s)
	}
	return s
}

// isLabel reports whether s can name a label: not empty, and no
// whitespace, comma, bracket or parenthesis.
func isLabel(s string) bool {
	return s != "" && !strings.ContainsAny(s, " \t,[]()")
}

// lex reads one source line into l and appends its leading labels to
// labels. A comment runs from '!' or '#' to the end of the line; each
// leading "name:" is a label; the mnemonic runs to the first space or
// tab; the operands are separated by commas outside brackets and
// parentheses.
func (l *Line) lex(text string, labels []string) []string {
	if i := strings.IndexAny(text, "!#"); i >= 0 {
		text = text[:i]
	}
	text = strings.TrimSpace(text)
	for {
		lbl, rest, ok := strings.Cut(text, ":")
		if lbl = strings.TrimSpace(lbl); !ok || !isLabel(lbl) {
			break
		}
		labels = append(labels, lbl)
		text = strings.TrimSpace(rest)
	}
	mnemonic, rest := text, ""
	if i := strings.IndexAny(text, " \t"); i >= 0 {
		mnemonic, rest = text[:i], text[i+1:]
	}
	l.Mnemonic, l.Args, l.err = strings.ToLower(mnemonic), l.Args[:0], nil
	if rest = strings.TrimSpace(rest); rest == "" {
		return labels
	}
	depth, start := 0, 0
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case ',':
			if depth == 0 {
				l.Args = append(l.Args, strings.TrimSpace(rest[start:i]))
				start = i + 1
			}
		}
	}
	l.Args = append(l.Args, strings.TrimSpace(rest[start:]))
	return labels
}

// Assemble runs the two-pass assembler over source text. It lexes
// every line; parse turns a line with a mnemonic into the
// instructions it expands to, reading its operands through the Line,
// and returns none for a mnemonic it does not know. encode turns an
// instruction whose label resolved to word displacement disp (0 when it
// names none) into its machine word. Every word is then lowered through
// arch.Lower, so Program.Insns is exactly what a checker sees when
// handed the binary.
func Assemble[I Native](arch Arch, src string, opts AsmOptions,
	parse func(l *Line) []I,
	encode func(insn I, disp int32) (uint32, error)) (*Program, error) {
	var insns []I
	var lines []int
	labels := make(map[string]int)
	var pending []string
	l := Line{regs: arch.Regs()}
	for lineNo, text := range strings.Split(src, "\n") {
		pending = l.lex(text, pending)
		if l.Mnemonic == "" {
			continue
		}
		parsed := parse(&l)
		if len(parsed) == 0 {
			l.Fail("unknown mnemonic %q", l.Mnemonic)
		}
		if l.err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo+1, l.err)
		}
		for _, lbl := range pending {
			if _, dup := labels[lbl]; dup {
				return nil, fmt.Errorf("line %d: duplicate label %q", lineNo+1, lbl)
			}
			labels[lbl] = len(insns)
		}
		pending = pending[:0]
		insns = append(insns, parsed...)
		for range parsed {
			lines = append(lines, lineNo+1)
		}
	}
	// Trailing labels refer past the last instruction.
	for _, lbl := range pending {
		labels[lbl] = len(insns)
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
		SrcLines: lines,
	}
	if p.Base == 0 {
		p.Base = DefaultBase
	}
	for idx, insn := range insns {
		var disp int32
		if label := insn.Ref(); label != "" {
			tgt, ok := labels[label]
			if !ok {
				return nil, fmt.Errorf("line %d: undefined label %q", lines[idx], label)
			}
			disp = int32(tgt - idx)
		}
		w, err := encode(insn, disp)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lines[idx], err)
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
