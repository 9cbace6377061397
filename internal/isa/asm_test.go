package isa_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"mcsafe/internal/isa"
	"mcsafe/internal/riscv"
	"mcsafe/internal/sparc"
)

// lexed is a front-end instruction that records the line Assemble
// handed over.
type lexed struct {
	mnemonic string
	args     []string
}

func (lexed) Ref() string { return "" }

// TestLexer pins the one lexer: comments from '!' or '#', several labels
// on one line, a trailing label, a tab after the mnemonic, and commas
// inside brackets and parentheses, seen through a front-end that records
// what it is handed.
func TestLexer(t *testing.T) {
	src := "a: b:c: Add %o0, [%o1, 4], f(1, 2)  ! a comment\n" +
		"\tLD\t[%o0 + %o1] , %o2 # another\n" +
		"# a whole-line comment\n" +
		"d :\n" +
		"jalr ra, 4(a0)\n" +
		"x y: nop\n" +
		"nop\n" +
		"e: f:\n"
	var got []lexed
	parse := func(l *isa.Line) []lexed {
		got = append(got, lexed{l.Mnemonic, append([]string(nil), l.Args...)})
		return []lexed{{}}
	}
	encode := func(lexed, int32) (uint32, error) { return 0x01000000, nil } // a SPARC nop
	p, err := isa.Assemble(sparc.Arch, src, isa.AsmOptions{}, parse, encode)
	if err != nil {
		t.Fatal(err)
	}
	want := []lexed{
		{"add", []string{"%o0", "[%o1, 4]", "f(1, 2)"}},
		{"ld", []string{"[%o0 + %o1]", "%o2"}},
		{"jalr", []string{"ra", "4(a0)"}},
		{"x", []string{"y: nop"}}, // "x y" cannot name a label
		{"nop", nil},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lexed %q,\nwant %q", got, want)
	}
	wantSyms := map[string]int{"a": 0, "b": 0, "c": 0, "d": 2, "e": 5, "f": 5}
	if !reflect.DeepEqual(p.Symbols, wantSyms) {
		t.Errorf("labels %v, want %v", p.Symbols, wantSyms)
	}
	if wantLines := []int{1, 2, 5, 6, 7}; !reflect.DeepEqual(p.SrcLines, wantLines) {
		t.Errorf("source lines %v, want %v", p.SrcLines, wantLines)
	}
}

// TestRegisterOperands: a register operand is read through the
// architecture's RegModel, one table per architecture. RV32I adds the
// "%" its names carry to a bare name, SPARC requires it, and a spelling
// the model does not name fails.
func TestRegisterOperands(t *testing.T) {
	archs := []struct {
		arch isa.Arch
		// format is an instruction reading the register; reg decodes
		// which register its word reads.
		format    string
		reg       func(w uint32) int
		spellings map[string]int // -1: the spelling must not assemble
	}{{
		sparc.Arch, "add %s,%%g0,%%g1",
		func(w uint32) int { i, _ := sparc.Decode(w); return int(i.Rs1) },
		map[string]int{
			"%g0": 0, "%g7": 7, "%o0": 8, "%o7": 15, "%l0": 16, "%l7": 23,
			"%i0": 24, "%i7": 31, "%sp": 14, "%fp": 30, "%o6": 14, "%i6": 30,
			"%x0": -1, "%o8": -1, "o0": -1, "%o": -1, "%sp1": -1, "%r1": -1,
			"%G0": -1,
		},
	}, {
		riscv.Arch, "add %s, zero, zero",
		func(w uint32) int { i, _ := riscv.Decode(w); return int(i.Rd) },
		map[string]int{
			"zero": 0, "ra": 1, "sp": 2, "s0": 8, "fp": 8, "a0": 10, "t6": 31,
			"x0": 0, "x10": 10, "x31": 31, "%a0": 10, "%x5": 5, "%fp": 8,
			"x1a": -1, "x01": -1, "x 1": -1, "x-0": -1, "x+1": -1, "x32": -1,
			"%%a0": -1, "A0": -1, "x": -1, "r1": -1,
		},
	}}
	for _, a := range archs {
		for s, want := range a.spellings {
			src := fmt.Sprintf(a.format, s)
			p, err := a.arch.Assemble(src, isa.AsmOptions{})
			switch {
			case want < 0 && err == nil:
				t.Errorf("%s: %q assembled; want an error", a.arch.Name(), src)
			case want >= 0 && err != nil:
				t.Errorf("%s: %q: %v", a.arch.Name(), src, err)
			case want >= 0 && a.reg(p.Words[0]) != want:
				t.Errorf("%s: %q reads register %d, want %d", a.arch.Name(), src, a.reg(p.Words[0]), want)
			}
		}
	}
}

// TestAssemblerErrors: malformed input fails on both front-ends, with
// its source line where it has one.
func TestAssemblerErrors(t *testing.T) {
	cases := []struct{ arch, src, want string }{
		{"sparc", "frobnicate %o0", `line 1: unknown mnemonic "frobnicate"`},
		{"sparc", "nop\nadd %o0,%o1", "line 2: add expects 3 operands, got 2"},
		{"sparc", "bl nowhere", `line 1: undefined label "nowhere"`},
		{"sparc", "ld %o0,%o1", `line 1: bad memory operand "%o0"`},
		{"sparc", "add %q0,%o1,%o2", `line 1: bad register "%q0"`},
		{"sparc", "L: add %o0,1,%o1\nL: nop", `line 2: duplicate label "L"`},
		{"sparc", "", "empty program"},
		{"sparc", "mov 99999999,%o0", "line 1: sparc: immediate 99999999 out of simm13 range"},
		{"sparc", "ld [%o0-%o1],%o2", "cannot subtract a register"},
		{"sparc", "set 0x100000000,%o0", `line 1: number "0x100000000" out of 32-bit range`},
		{"sparc", "call f g", `line 1: bad label "f g"`},
		{"rv32i", "addi x1a, a0, 1", `line 1: bad register "%x1a"`},
		{"rv32i", "addi x01, a0, 1", `line 1: bad register "%x01"`},
		{"rv32i", "addi x 1, a0, 1", `line 1: bad register "%x 1"`},
		{"rv32i", "addi x-0, a0, 1", `line 1: bad register "%x-0"`},
		{"rv32i", "addi x32, a0, 1", `line 1: bad register "%x32"`},
		{"rv32i", "nop\nlw a0, 0(x1a)", `line 2: bad register "%x1a"`},
		{"rv32i", "frobnicate a0", `line 1: unknown mnemonic "frobnicate"`},
		{"rv32i", "add a0, a1", "line 1: add expects 3 operands, got 2"},
		{"rv32i", "nop a0", "line 1: nop expects 0 operands, got 1"},
		{"rv32i", "bad label: nop", `line 1: unknown mnemonic "bad"`},
		{"rv32i", "j bad label", `line 1: bad label "bad label"`},
		{"rv32i", "j nowhere", `line 1: undefined label "nowhere"`},
		{"rv32i", "lw a0, 0[a1]", `line 1: bad memory operand "0[a1]"`},
		{"rv32i", "li a0, 1x", `line 1: bad number "1x"`},
		{"rv32i", "la a0, nosuch", `line 1: unknown data symbol "nosuch"`},
	}
	for _, c := range cases {
		a, err := isa.Get(c.arch)
		if err != nil {
			t.Fatal(err)
		}
		_, err = a.Assemble(c.src, isa.AsmOptions{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Assemble(%q) = %v, want an error containing %q", c.arch, c.src, err, c.want)
		}
	}
}

// TestProcNaming pins the one naming rule for procedures whose entry
// carries several labels: the least label at the index, whichever label
// the caller named as Entry or the call sites used.
func TestProcNaming(t *testing.T) {
	const body = "  retl\n  nop\naa:\nzz:\nbb:\n  retl\n  nop\n"
	cases := []struct {
		name, src, entry, want string
	}{
		{"one site label", "main:\n  call zz\n  nop\n" + body, "main", "main,aa"},
		{"two site labels", "main:\n  call zz\n  nop\n  call bb\n  nop\n" + body, "main", "main,aa"},
		{"entry label named", "b:\na:\n  retl\n  nop\n", "b", "a"},
		{"entry unnamed", "b:\na:\n  retl\n  nop\n", "", "a"},
		{"entry unlabeled", "  retl\n  nop\n", "", ""},
	}
	for _, c := range cases {
		p, err := sparc.Arch.Assemble(c.src, isa.AsmOptions{Entry: c.entry})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := strings.Join(p.Procs, ","); got != c.want {
			t.Errorf("%s: procs %q, want %q", c.name, got, c.want)
		}
	}

	// Bare words name by the same rule, and an unlabeled entry is
	// minted proc_0.
	p, err := sparc.Arch.Assemble("main:\n  call zz\n  nop\n"+body, isa.AsmOptions{Entry: "main"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := isa.FromWords(sparc.Arch, p.Words, 0, map[string]int{"zz": 4, "bb": 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(q.Procs, ","); got != "proc_0,bb" {
		t.Errorf("loaded procs %q, want proc_0,bb", got)
	}
}

// TestFromWordsManyCalls: naming is linear in the number of procedures.
// 50k words, each calling the next, make 50k procedures and 50k minted
// names; a lookup that scanned the symbol table per procedure would take
// over a billion map steps.
func TestFromWordsManyCalls(t *testing.T) {
	const n = 50000
	words := make([]uint32, n)
	for i := range words {
		words[i] = 0x40000001 // call .+1
	}
	start := time.Now()
	p, err := isa.FromWords(sparc.Arch, words, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Procs) != n || p.Procs[n-1] != "proc_49999" {
		t.Fatalf("%d procs, want %d ending in proc_49999", len(p.Procs), n)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("FromWords of %d calls took %v", n, d)
	}
}

// TestDisassembleManyLabels: the disassembly is linear in the number of
// labels. 20k labelled instructions, two labels each, render in
// milliseconds; a label lookup that scanned the symbol table per
// instruction would take some 800 million map steps.
func TestDisassembleManyLabels(t *testing.T) {
	const n = 20000
	words := make([]uint32, n)
	syms := make(map[string]int, 2*n)
	for i := range words {
		words[i] = 0x01000000 // nop
		syms[fmt.Sprintf("b%05d", i)] = i
		syms[fmt.Sprintf("a%05d", i)] = i
	}
	p, err := isa.FromWords(sparc.Arch, words, 0, syms, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	out := p.Disassemble()
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Disassemble of %d labelled instructions took %v", n, d)
	}
	if !strings.HasPrefix(out, "a00000:\n   0: 01000000  ") || strings.Count(out, ":\n") != n || strings.Contains(out, "b0") {
		t.Errorf("each instruction should carry its least label:\n%.80s", out)
	}
}
