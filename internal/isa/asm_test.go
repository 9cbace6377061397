package isa_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mcsafe/internal/isa"
	"mcsafe/internal/sparc"
)

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
