package mcsafe

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mcsafe/internal/progs"
)

const fig1Asm = `
1:  mov %o0,%o2
2:  clr %o0
3:  cmp %o0,%o1
4:  bge 12
5:  clr %g3
6:  sll %g3,2,%g2
7:  ld [%o2+%g2],%g2
8:  inc %g3
9:  cmp %g3,%o1
10: bl 6
11: add %o0,%g2,%o0
12: retl
13: nop
`

const fig1Spec = `
region V
loc e  int    state init region V summary
val arr int[n] state {e} region V
constraint n >= 1
invoke %o0 = arr
invoke %o1 = n
allow V int ro
allow V int[n] rfo
`

func TestPublicAPIQuickstart(t *testing.T) {
	spec, err := ParseSpec(fig1Spec)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble(fig1Asm, spec, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Check(context.Background(), prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safe {
		t.Fatalf("Figure 1 should be safe: %+v", res.Violations)
	}
	if res.Stats.GlobalConds != 4 {
		t.Errorf("global conditions = %d, want 4", res.Stats.GlobalConds)
	}
	if ts := res.DumpTypestate(); !strings.Contains(ts, "int32[n]") {
		t.Errorf("typestate dump missing the array pointer:\n%s", ts)
	}
	if cs := res.Conditions(); !strings.Contains(cs, "proved") {
		t.Errorf("conditions dump: %q", cs)
	}
}

// TestBinaryFirst checks machine words directly: the Words of an
// assembled program round-trip through FromWords (as a loader would
// supply them) and the checker reaches the same verdict.
func TestBinaryFirst(t *testing.T) {
	spec, err := ParseSpec(fig1Spec)
	if err != nil {
		t.Fatal(err)
	}
	assembled, err := Assemble(fig1Asm, spec, "")
	if err != nil {
		t.Fatal(err)
	}
	words := assembled.Words()
	if len(words) != 13 {
		t.Fatalf("words = %d", len(words))
	}
	prog, err := FromWords(words, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Check(context.Background(), prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safe {
		t.Fatalf("binary-first check should be safe: %+v", res.Violations)
	}
}

// TestBinaryTamperingDetected flips the loop branch of the Figure 1
// binary from bl (signed less) to ble, introducing an off-by-one read of
// arr[n]; checking the tampered words must fail.
func TestBinaryTamperingDetected(t *testing.T) {
	spec, _ := ParseSpec(fig1Spec)
	assembled, _ := Assemble(fig1Asm, spec, "")
	words := append([]uint32(nil), assembled.Words()...)
	// Word 9 is "bl 6" (cond 3); rewrite the cond field to ble (2).
	if (words[9]>>25)&0xf != 3 {
		t.Fatalf("word 9 is not bl: %08x", words[9])
	}
	words[9] = words[9]&^(0xf<<25) | (2 << 25)
	prog, err := FromWords(words, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Check(context.Background(), prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Safe {
		t.Fatal("tampered binary (bl -> ble) must be rejected")
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v.Desc, "upper bound") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an upper-bound violation: %+v", res.Violations)
	}
}

func TestCheckNilArguments(t *testing.T) {
	if _, err := New().Check(context.Background(), nil, nil); err == nil {
		t.Fatal("nil arguments should error")
	}
}

func TestParseSpecErrors(t *testing.T) {
	if _, err := ParseSpec("region V\nloc x nosuch"); err == nil {
		t.Fatal("bad spec should error")
	}
}

func TestAssembleErrors(t *testing.T) {
	spec, _ := ParseSpec(fig1Spec)
	if _, err := Assemble("frobnicate", spec, ""); err != nil {
		return
	}
	t.Fatal("bad assembly should error")
}

func TestOptionsAblation(t *testing.T) {
	// Without generalization the Figure 1 loop invariant cannot be
	// synthesized (Section 5.2.2 requires it), so the checker rejects.
	spec, _ := ParseSpec(fig1Spec)
	prog, _ := Assemble(fig1Asm, spec, "")
	res, err := New(WithoutGeneralization(), WithoutDNF()).Check(context.Background(), prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Safe {
		t.Fatal("Figure 1 should not verify without generalization")
	}
}

// TestBuiltinsConsistent cross-checks the public API against the
// built-in Figure 9 corpus for two representative programs.
func TestBuiltinsConsistent(t *testing.T) {
	for _, name := range []string{"Sum", "PagingPolicy"} {
		b := progs.Get(name)
		spec, err := ParseSpec(b.Spec)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Assemble(b.Source, spec, b.Entry)
		if err != nil {
			t.Fatal(err)
		}
		res, err := New().Check(context.Background(), prog, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Safe != b.WantSafe {
			t.Errorf("%s: Safe = %v, want %v", name, res.Safe, b.WantSafe)
		}
	}
}

// returnEdgeAsm stores a pointer into the location pp points to, then
// calls f, which overwrites that location with a null pointer through
// the same address before main dereferences what it holds.
const returnEdgeAsm = `
main:
	save %sp,-96,%sp
	st %i1,[%i0]
	mov %i2,%o1
	call f
	mov %i0,%o0
	ld [%i0],%l0
	ld [%l0],%l1
	ret
	restore
f:
	st %o1,[%o0]
	retl
	nop
`

// returnEdgeSpec names the host location the callee writes LOC.
const returnEdgeSpec = `
region H
loc x int state init region H
loc LOC ptr<int> state {x,null} region H
val pp ptr<ptr<int>> state {LOC} region H
val px ptr<int> state {x} region H
val np ptr<int> state {null} region H
invoke %o0 = pp
invoke %o1 = px
invoke %o2 = np
allow H ptr<int> rwfo
allow H int rwo
allow H ptr<ptr<int>> rfo
`

// TestReturnEdgeTellsMemoryFromRegisters: on the return edge from a
// callee that writes memory, every host location takes the callee's
// typestate, whatever its name. A location named like a windowed
// register ("wp") once kept the caller's, so main's dereference of the
// null f stored was approved.
func TestReturnEdgeTellsMemoryFromRegisters(t *testing.T) {
	var want []Violation
	for _, name := range []string{"vp", "wp"} {
		spec, err := ParseSpec(strings.ReplaceAll(returnEdgeSpec, "LOC", name))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Assemble(returnEdgeAsm, spec, "main")
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(WithParallelism(1)).Check(context.Background(), prog, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Safe {
			t.Fatalf("location %q: f stores null through pp before main dereferences it, yet the verdict is safe", name)
		}
		if want == nil {
			want = res.Violations
			continue
		}
		if !reflect.DeepEqual(res.Violations, want) {
			t.Errorf("location %q: violations %v, want %v (as for %q)", name, res.Violations, want, "vp")
		}
	}
}

// TestNullOnlyDereferenceReportedOnce: after f stores null through pp,
// main's `ld [%l0],%l1` (line 9) dereferences a pointer whose only
// referent is null. The access resolves to no abstract location, which
// is one violation, charged as a null dereference.
func TestNullOnlyDereferenceReportedOnce(t *testing.T) {
	spec, err := ParseSpec(strings.ReplaceAll(returnEdgeSpec, "LOC", "vp"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble(returnEdgeAsm, spec, "main")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(WithParallelism(1)).Check(context.Background(), prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("violations %v, want exactly one", res.Violations)
	}
	if v := res.Violations[0]; v.Line != 9 || v.Phase != "local" || v.Code != CodeNullPtr {
		t.Errorf("violation %v, want a local %s violation at line 9", v, CodeNullPtr)
	}
}
