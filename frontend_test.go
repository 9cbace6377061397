package mcsafe

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"mcsafe/internal/gen"
	"mcsafe/internal/progs"
)

// frontEndCase is one program the front-end golden pins: assembly text
// and its spec for one architecture.
type frontEndCase struct {
	name, arch, asm, spec, entry string
}

// rvCallsAsm exercises RV32I procedure discovery: jal with a link
// register is a call, a jump through zero is not, and an extern
// resolves past the last instruction.
const rvCallsAsm = `
main:
  addi sp, sp, -16
  sw ra, 12(sp)
  call zhelper
  jal ra, zhelper
  call log
  j out
out:
  lw ra, 12(sp)
  addi sp, sp, 16
  ret
zhelper:
  addi a0, a0, 1
  ret
`

const rvCallsSpec = `
region V
trusted log args 0
end
`

// frontEndCases lists the 13 Figure 9 programs, 36 generated fixtures
// (kinds cycling, 64–1464 instructions), the RV32I summation from
// testdata and a hand-written RV32I program with calls.
func frontEndCases(t *testing.T) []frontEndCase {
	var cases []frontEndCase
	for _, b := range progs.All() {
		cases = append(cases, frontEndCase{name: b.Name, arch: "sparc", asm: b.Source, spec: b.Spec, entry: b.Entry})
	}
	for seed := 0; seed < 36; seed++ {
		f := gen.Generate(gen.Config{Seed: int64(seed), Size: 64 + 40*seed, Kind: gen.Kinds[seed%len(gen.Kinds)]})
		cases = append(cases, frontEndCase{name: f.Name, arch: "sparc", asm: f.Asm, spec: f.Spec, entry: f.Entry})
	}
	asm, err := os.ReadFile("testdata/rv32i_sum.s")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := os.ReadFile("testdata/rv32i_sum.spec")
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		frontEndCase{name: "rv32i_sum", arch: "rv32i", asm: string(asm), spec: string(spec), entry: "sum"},
		frontEndCase{name: "rv32i_calls", arch: "rv32i", asm: rvCallsAsm, spec: rvCallsSpec, entry: "main"})
	return cases
}

// frontEndDigest hashes what a front-end hands the checker: the
// program's fingerprint (words, base, entry, symbol tables, source
// map), its entry and procedure list, and every instruction's text,
// return flag and RTL.
func frontEndDigest(p *Program) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nentry %d\nprocs %s\n", p.Fingerprint(), p.prog.Entry, strings.Join(p.prog.Procs, ","))
	for _, in := range p.prog.Insns {
		fmt.Fprintf(h, "%s\t%v\t%v\n", in.Text, in.Ret, in.RTL)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestFrontEndGolden pins the front-ends' output: every case assembled,
// and its words reloaded through FromWords with and without its symbol
// table, must digest exactly as recorded in
// testdata/frontends.golden. A mismatch prints the line the tree now
// produces; a deliberate front-end change replaces the golden line by
// hand and says why.
func TestFrontEndGolden(t *testing.T) {
	var got []string
	for _, c := range frontEndCases(t) {
		spec, err := ParseSpecArch(c.spec, c.arch)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		p, err := AssembleArch(c.arch, c.asm, spec, c.entry)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, c.name+" asm "+frontEndDigest(p))
		bare, err := FromWordsArch(c.arch, p.Words(), p.prog.Base, nil, p.prog.DataSyms)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, c.name+" words "+frontEndDigest(bare))
		loaded, err := FromWordsArch(c.arch, p.Words(), p.prog.Base, p.prog.Symbols, p.prog.DataSyms)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, c.name+" words+syms "+frontEndDigest(loaded))
	}
	raw, err := os.ReadFile("testdata/frontends.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Errorf("golden has %d lines, the tree produces %d", len(want), len(got))
	}
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			t.Errorf("line %d:\n want %s\n  got %s", i+1, want[i], got[i])
		}
	}
}

// TestAliasedEntryNaming: a procedure entry carrying two labels is
// named by one rule, never by map order nor by which label the caller
// or the call sites used: the least label at the index. Assembling with
// entry f or g and loading the words give one fingerprint, so they must
// give one verdict too; the frame annotation for f applies on every
// run and path.
func TestAliasedEntryNaming(t *testing.T) {
	const src = "f:\ng:\n  save %sp,-96,%sp\n  ret\n  restore\n"
	spec, err := ParseSpec("frame f size 160\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 30; run++ {
		asmF, err := Assemble(src, spec, "f")
		if err != nil {
			t.Fatal(err)
		}
		asmG, err := Assemble(src, spec, "g")
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := FromWords(asmF.Words(), 0, map[string]int{"f": 0, "g": 0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if asmF.Fingerprint() != asmG.Fingerprint() {
			t.Fatalf("entry f and entry g fingerprint apart")
		}
		for path, p := range []*Program{asmF, asmG, loaded} {
			if got := strings.Join(p.prog.Procs, ","); got != "f" {
				t.Fatalf("run %d path %d: procs %q, want f", run, path, got)
			}
			res, err := New().Check(context.Background(), p, spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Safe {
				t.Fatalf("run %d path %d: 96-byte frame accepted against frame f size 160", run, path)
			}
		}
	}
}

// TestAliasedCalleeNaming: a called procedure with two labels takes the
// least of them, whichever one the call sites name, so two sources that
// assemble to one fingerprint get one verdict.
func TestAliasedCalleeNaming(t *testing.T) {
	const tmpl = "main:\n  save %%sp,-96,%%sp\n  call %s\n  nop\n  ret\n  restore\n" +
		"bb:\nzz:\n  save %%sp,-96,%%sp\n  ret\n  restore\n"
	spec, err := ParseSpec("frame bb size 160\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	var fp Hash
	for i, site := range []string{"bb", "zz"} {
		p, err := Assemble(fmt.Sprintf(tmpl, site), spec, "main")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			fp = p.Fingerprint()
		} else if p.Fingerprint() != fp {
			t.Fatalf("call %s fingerprints apart from call bb", site)
		}
		if got := strings.Join(p.prog.Procs, ","); got != "main,bb" {
			t.Errorf("call %s: procs %q, want main,bb", site, got)
		}
		res, err := New().Check(context.Background(), p, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Safe {
			t.Errorf("call %s: 96-byte frame accepted against frame bb size 160", site)
		}
	}
}

// TestFromWordsLeavesCallerSymbols: the loader names an unlabeled entry
// proc_0 in the program's own symbol table, never in the caller's map.
func TestFromWordsLeavesCallerSymbols(t *testing.T) {
	syms := map[string]int{}
	p, err := FromWords([]uint32{0x81c3e008, 0x01000000}, 0, syms, nil) // retl; nop
	if err != nil {
		t.Fatal(err)
	}
	if len(syms) != 0 {
		t.Errorf("FromWords wrote %v into the caller's symbol map", syms)
	}
	if idx, ok := p.prog.Symbols["proc_0"]; !ok || idx != 0 {
		t.Errorf("program symbols %v lack proc_0", p.prog.Symbols)
	}
}
