package propagate

// Edge-case operational semantics: operations outside the precise
// fragment must degrade soundly (to bottom / unknown), never crash or
// invent information.

import (
	"testing"

	"mcsafe/internal/cfg"
	"mcsafe/internal/sparc"
	"mcsafe/internal/types"
	"mcsafe/internal/typestate"
)

// dstLoc names the destination register of a register-writing
// instruction (its Assign effect), as the abstract store keys it.
func dstLoc(t *testing.T, n *cfg.Node) string {
	t.Helper()
	a := n.Shape.Assign()
	if a == nil {
		t.Fatalf("%s: no assign effect", n.Insn.Text)
	}
	return sparc.Arch.Regs().Name(a.Dst)
}

const scalarSpec = `
sym a
sym b
invoke %o0 = a
invoke %o1 = b
`

func TestPointerMinusPointerIsBottom(t *testing.T) {
	asm := `
	sub %o0,%o1,%o2
	retl
	nop
`
	spec := `
struct cell { v int }
region H
loc c1 cell region H fields(v=init)
loc c2 cell region H fields(v=init)
val p1 ptr<cell> state {c1} region H
val p2 ptr<cell> state {c2} region H
invoke %o0 = p1
invoke %o1 = p2
allow H cell.v ro
allow H ptr<cell> rfo
`
	r := run(t, asm, spec, "")
	n := nodeByIndex(r, 0)
	out := r.Out[n.ID].Get("%o2")
	if out.Type.Kind != types.Bottom {
		t.Errorf("ptr - ptr = %v, want bottom type", out)
	}
}

func TestDivMulKinds(t *testing.T) {
	asm := `
	umul %o0,%o1,%o2
	sdiv %o2,%o1,%o3
	udiv %o2,%o1,%o4
	smul %o0,3,%o5
	retl
	nop
`
	r := run(t, asm, scalarSpec, "")
	for idx := 0; idx < 4; idx++ {
		n := nodeByIndex(r, idx)
		if r.Kind[n.ID] != KindScalarOp {
			t.Errorf("insn %d kind = %v, want scalar-op", idx, r.Kind[n.ID])
		}
		out := r.Out[n.ID].Get(dstLoc(t, n))
		if out.State.Kind != typestate.StateInit {
			t.Errorf("insn %d result = %v, want initialized", idx, out)
		}
	}
}

func TestShiftConstantsFold(t *testing.T) {
	asm := `
	mov 3,%o2
	sll %o2,4,%o3      ! 48
	srl %o3,2,%o4      ! 12
	sra %o4,1,%o5      ! 6
	retl
	nop
`
	r := run(t, asm, scalarSpec, "")
	last := nodeByIndex(r, 3)
	out := r.Out[last.ID].Get("%o5")
	if !out.Known || out.ConstVal != 6 {
		t.Errorf("constant chain = %v, want known 6", out)
	}
}

func TestAndccOnScalars(t *testing.T) {
	asm := `
	andcc %o0,3,%g0
	be aligned
	nop
	mov 1,%o2
aligned:
	retl
	nop
`
	r := run(t, asm, scalarSpec, "")
	n := nodeByIndex(r, 0)
	if r.Kind[n.ID] != KindCompare {
		t.Errorf("andcc-with-%%g0 kind = %v, want compare", r.Kind[n.ID])
	}
}

func TestSethiNonAddressStaysInt(t *testing.T) {
	asm := `
	sethi %hi(0x12345400),%o2
	retl
	nop
`
	r := run(t, asm, scalarSpec, "")
	n := nodeByIndex(r, 0)
	out := r.Out[n.ID].Get("%o2")
	if !out.Known || uint32(out.ConstVal) != 0x12345400 {
		t.Errorf("sethi = %v", out)
	}
	if out.Type.IsPointer() {
		t.Error("a constant that matches no data symbol must stay an integer")
	}
}

func TestSubwordLoadRefinesType(t *testing.T) {
	asm := `
	ldub [%o0+0],%o2
	ldsh [%o0+2],%o3
	retl
	nop
`
	spec := `
struct rec { b0 uint8 ; b1 uint8 ; h int16 }
region H
loc rc rec region H fields(b0=init, b1=init, h=init)
val rp ptr<rec> state {rc} region H
invoke %o0 = rp
allow H rec.b0 ro
allow H rec.b1 ro
allow H rec.h ro
allow H ptr<rec> rfo
`
	r := run(t, asm, spec, "")
	if len(r.Issues) != 0 {
		t.Fatalf("issues: %+v", r.Issues)
	}
	b := r.Out[nodeByIndex(r, 0).ID].Get("%o2")
	if !b.Type.Equal(types.UInt8Type) {
		t.Errorf("ldub result type = %v", b.Type)
	}
	h := r.Out[nodeByIndex(r, 1).ID].Get("%o3")
	if !h.Type.Equal(types.Int16Type) {
		t.Errorf("ldsh result type = %v", h.Type)
	}
}

func TestByteFieldMisalignedWidthRejected(t *testing.T) {
	// A 4-byte load over two byte fields resolves to no field.
	asm := `
	ld [%o0+0],%o2
	retl
	nop
`
	spec := `
struct rec { b0 uint8 ; b1 uint8 ; h int16 }
region H
loc rc rec region H fields(b0=init, b1=init, h=init)
val rp ptr<rec> state {rc} region H
invoke %o0 = rp
allow H rec.b0 ro
allow H rec.b1 ro
allow H rec.h ro
allow H ptr<rec> rfo
`
	r := run(t, asm, spec, "")
	if len(r.Issues) == 0 {
		t.Fatal("word access over byte fields should be reported")
	}
}

func TestRestoreComputesInOldWindow(t *testing.T) {
	asm := `
f:
	save %sp,-96,%sp
	mov 5,%i0
	ret
	restore %i0,1,%o0   ! caller's %o0 = callee's %i0 + 1
`
	r := run(t, asm, "sym x\ninvoke %o0 = x", "f")
	if len(r.Issues) != 0 {
		t.Fatalf("issues: %+v", r.Issues)
	}
	// The restore node is the replica executed on the return path; find
	// any node whose Out binds depth-0 %o0 to 6.
	found := false
	for _, n := range r.G.Nodes {
		if r.Out[n.ID].Top {
			continue
		}
		o0 := r.Out[n.ID].Get("%o0")
		if o0.Known && o0.ConstVal == 6 {
			found = true
		}
	}
	if !found {
		t.Error("restore should compute 6 into the caller o0")
	}
}
