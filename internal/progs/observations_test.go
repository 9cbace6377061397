package progs

// Tests for the qualitative observations of Section 6 of the paper, and
// for the limitations Section 8 admits: those must reproduce too — a
// reproduction that silently *fixes* the paper's documented imprecision
// would not be checking the same analysis.

import (
	"strings"
	"testing"
	"time"

	"mcsafe/internal/annotate"
	"mcsafe/internal/core"
	"mcsafe/internal/isa"
	"mcsafe/internal/policy"
	"mcsafe/internal/sparc"
)

// TestInterproceduralFasterThanInlined reproduces the Section 6
// observation: "verifying an interprocedural version of an untrusted
// program can take less time than verifying a manually inlined version
// because the manually inlined version replicates the callee functions
// and the global conditions in the callee functions." At Parallelism 1
// the effort counters state it exactly (HeapSort: 956 solver queries
// and 292 induction runs; HeapSort2: 549 and 126); the wall-clock check
// compares each side's fastest of nine alternating runs. Other load on
// a shared host only adds time, so a side's fastest run is its least
// disturbed one, whatever runs beside the test.
func TestInterproceduralFasterThanInlined(t *testing.T) {
	check := func(b *Benchmark) *core.Result {
		t.Helper()
		res, err := b.Check(core.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Safe {
			t.Fatalf("%s must verify", b.Name)
		}
		return res
	}
	var inlined, interproc *core.Result
	var fastInlined, fastInterproc time.Duration
	for i := 0; i < 9; i++ {
		if i%2 == 0 {
			inlined, interproc = check(HeapSort()), check(HeapSort2())
		} else {
			interproc, inlined = check(HeapSort2()), check(HeapSort())
		}
		if i == 0 || inlined.Times.Global < fastInlined {
			fastInlined = inlined.Times.Global
		}
		if i == 0 || interproc.Times.Global < fastInterproc {
			fastInterproc = interproc.Times.Global
		}
	}
	// The inlined version has more global conditions (the replication
	// the paper describes)...
	if inlined.Stats.GlobalConds <= interproc.Stats.GlobalConds {
		t.Errorf("inlined conditions (%d) should exceed interprocedural (%d)",
			inlined.Stats.GlobalConds, interproc.Stats.GlobalConds)
	}
	// ... and takes more effort and longer to verify globally (a 1.2x
	// margin; the observed ratios are 1.6x and more).
	for _, c := range []struct {
		what               string
		inlined, interproc int
	}{
		{"solver queries", inlined.Stats.ProverQueries, interproc.Stats.ProverQueries},
		{"induction runs", inlined.Stats.InductionRuns, interproc.Stats.InductionRuns},
	} {
		if float64(c.inlined) < 1.2*float64(c.interproc) {
			t.Errorf("inlined %s (%d) should exceed 1.2x interprocedural (%d)", c.what, c.inlined, c.interproc)
		}
	}
	ratio := float64(fastInlined) / float64(fastInterproc)
	t.Logf("fastest inlined/interprocedural global verification time %.2f (%v / %v)", ratio, fastInlined, fastInterproc)
	if ratio < 1.2 {
		t.Errorf("fastest inlined/interprocedural global verification time %.2f (%v / %v), want at least 1.2",
			ratio, fastInlined, fastInterproc)
	}
}

// TestWeakUpdateFalsePositive reproduces the jPVM imprecision of
// Section 6: "our analysis reported that some actual parameters to the
// host methods and functions are undefined in the jPVM example, when
// they were in fact defined" — a store into a summary location is a weak
// update, so the meet with the old (uninitialized) state cannot prove
// definedness.
func TestWeakUpdateFalsePositive(t *testing.T) {
	asm := `
main:
	mov 7,%o1
	st %o1,[%o0+0]     ! slot->arg = 7 (weak: slot is a summary)
	ld [%o0+0],%o0     ! read it back...
	call host_use      ! ... and pass it to the host
	nop
	retl
	nop
host_use:
`
	spec := `
struct slot { arg int }
region H
loc s slot region H summary fields(arg=uninit)
val sp ptr<slot> state {s} region H
invoke %o0 = sp
allow H slot.arg rwo
allow H ptr<slot> rfo
trusted host_use args 1
  arg 0 int init
end
`
	s, err := policy.Parse(spec, sparc.Arch)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sparc.Arch.Assemble(asm, isa.AsmOptions{Entry: "main", Externs: s.TrustedNames()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Check(prog, s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Safe {
		t.Fatal("the weak-update imprecision should reproduce (a false positive)")
	}
	found := false
	for _, v := range res.Violations {
		if v.Code == annotate.CodeUninit || v.Code == annotate.CodePrecond {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an initializedness complaint (code %q or %q): %+v",
			annotate.CodeUninit, annotate.CodePrecond, res.Violations)
	}

	// The same program against a NON-summary slot verifies: the store
	// is a strong update.
	strongSpec := strings.Replace(spec, "region H summary fields", "region H fields", 1)
	s2, err := policy.Parse(strongSpec, sparc.Arch)
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := sparc.Arch.Assemble(asm, isa.AsmOptions{Entry: "main", Externs: s2.TrustedNames()})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := core.Check(prog2, s2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Safe {
		t.Fatalf("strong update should verify: %+v", res2.Violations)
	}
}

// TestSingleUsageFlowSensitivity demonstrates the Section 4.2.1 point:
// "typestate checking allows an instruction such as add %o0,%g2,%o0 to
// be resolved as a pointer indirection at one occurrence of the
// instruction, but as an array-index calculation at a different
// occurrence" — the same opcode pattern resolves per occurrence.
func TestSingleUsageFlowSensitivity(t *testing.T) {
	asm := `
main:
	add %o0,%o1,%o2    ! occurrence 1: array-index calculation
	add %o1,%o1,%o3    ! occurrence 2: scalar addition
	ld [%o2],%o4       ! use the computed element pointer
	retl
	nop
`
	spec := `
region V
loc e int state init region V summary
val arr int[n] state {e} region V
sym idx
constraint n >= 2
constraint idx = 4
invoke %o0 = arr
invoke %o1 = idx
allow V int ro
allow V int[n] rfo
allow V int(n] rfo
`
	s, err := policy.Parse(spec, sparc.Arch)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sparc.Arch.Assemble(asm, isa.AsmOptions{Entry: "main"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Check(prog, s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Occurrence 1 resolves as an array-index calculation; occurrence 2
	// as a scalar op — inspect the recorded kinds.
	kinds := map[int]string{}
	for _, n := range res.G.Nodes {
		if n.Replica {
			continue
		}
		kinds[n.Index] = res.Prop.Kind[n.ID].String()
	}
	if kinds[0] != "array-index" {
		t.Errorf("occurrence 1 resolved as %q, want array-index", kinds[0])
	}
	if kinds[1] != "scalar-op" {
		t.Errorf("occurrence 2 resolved as %q, want scalar-op", kinds[1])
	}
	if !res.Safe {
		t.Errorf("the element access at idx=4 < 4n (n>=2) should verify: %+v", res.Violations)
	}
}

// TestXorTrickRejected reproduces the Section 8 limitation: "our
// analysis is not able to deal with certain unconventional usages of
// operations, such as swapping two non-integer values by means of
// exclusive or operations." The xor-swap of two pointers loses their
// typestate and the subsequent dereference is rejected.
func TestXorTrickRejected(t *testing.T) {
	asm := `
main:
	xor %o0,%o1,%o0    ! xor-swap the two pointers
	xor %o0,%o1,%o1
	xor %o0,%o1,%o0
	ld [%o0+0],%o2     ! dereference after the swap
	retl
	nop
`
	spec := `
struct cell { v int }
region H
loc a cell region H fields(v=init)
loc b cell region H fields(v=init)
val pa ptr<cell> state {a} region H
val pb ptr<cell> state {b} region H
invoke %o0 = pa
invoke %o1 = pb
allow H cell.v ro
allow H ptr<cell> rfo
`
	s, err := policy.Parse(spec, sparc.Arch)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sparc.Arch.Assemble(asm, isa.AsmOptions{Entry: "main"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Check(prog, s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Safe {
		t.Fatal("the xor-swap trick must be rejected (Section 8)")
	}
}

// TestRecursionRejected: Section 5.2.1 — "our present system detects and
// rejects recursive programs".
func TestRecursionRejectedEndToEnd(t *testing.T) {
	asm := `
main:
	call main
	nop
	retl
	nop
`
	s, _ := policy.Parse("sym x\ninvoke %o0 = x", sparc.Arch)
	prog, err := sparc.Arch.Assemble(asm, isa.AsmOptions{Entry: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Check(prog, s, core.Options{}); err == nil {
		t.Fatal("recursion must be rejected")
	}
}

// TestSentinelSearchUnprovable reproduces the paper's Section 8 example
// of induction-iteration incompleteness: a sequential search that relies
// on a sentinel stored at the end of the array ("the use of a sentinel
// at the end of the array to speed up a sequential search", citing
// Suzuki-Ishihata). The loop has no index guard — termination and bounds
// depend on data — so the checker must reject it even though a run with
// a proper sentinel would stay in bounds.
func TestSentinelSearchUnprovable(t *testing.T) {
	asm := `
search:
	clr %g1
loop:
	sll %g1,2,%g2
	ld [%o0+%g2],%g3   ! bounds depend on the sentinel VALUE
	cmp %g3,%o1
	bne loop
	inc %g1
	retl
	mov %g1,%o0
`
	spec := `
region V
loc e int state init region V summary
val arr int[n] state {e} region V
sym key
constraint n >= 1
invoke %o0 = arr
invoke %o1 = key
allow V int ro
allow V int[n] rfo
`
	s, err := policy.Parse(spec, sparc.Arch)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sparc.Arch.Assemble(asm, isa.AsmOptions{Entry: "search"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Check(prog, s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Safe {
		t.Fatal("sentinel search must be rejected (Section 8 limitation)")
	}
	found := false
	for _, v := range res.Violations {
		if v.Code == annotate.CodeOOB && strings.Contains(v.Desc, "upper bound") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an upper-bound %q violation: %+v", annotate.CodeOOB, res.Violations)
	}
}
