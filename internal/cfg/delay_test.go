package cfg

import (
	"testing"

	"mcsafe/internal/isa"
	"mcsafe/internal/sparc"
)

// buildAsm assembles a source snippet and builds its graph.
func buildAsm(t *testing.T, src string) *Graph {
	t.Helper()
	p, err := sparc.Arch.Assemble(src, isa.AsmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// primaryOf returns the primary node for instruction index idx.
func primaryOf(t *testing.T, g *Graph, idx int) *Node {
	t.Helper()
	for _, n := range g.Nodes {
		if !n.Replica && n.Index == idx {
			return n
		}
	}
	t.Fatalf("no primary node for instruction %d", idx)
	return nil
}

func replicas(g *Graph) []*Node {
	var reps []*Node
	for _, n := range g.Nodes {
		if n.Replica {
			reps = append(reps, n)
		}
	}
	return reps
}

// TestBranchAlwaysAnnulled: ba,a annuls its delay slot unconditionally,
// so the graph must jump straight to the target — no replica, and the
// slot's primary node is unreachable.
func TestBranchAlwaysAnnulled(t *testing.T) {
	g := buildAsm(t, `
	ba,a done
	mov 1,%g1
done:
	retl
	nop
`)
	if reps := replicas(g); len(reps) != 0 {
		t.Fatalf("ba,a must not replicate its delay slot; got %d replicas", len(reps))
	}
	br := primaryOf(t, g, 0)
	if len(br.Succs) != 1 || br.Succs[0].Kind != EdgeTaken {
		t.Fatalf("ba,a successors = %+v, want one taken edge", br.Succs)
	}
	if tgt := g.Nodes[br.Succs[0].To]; tgt.Index != 2 {
		t.Fatalf("ba,a taken edge goes to instruction %d, want 2", tgt.Index)
	}
	slot := primaryOf(t, g, 1)
	if len(slot.Preds) != 0 || len(slot.Succs) != 0 {
		t.Fatalf("annulled slot must be disconnected; preds=%+v succs=%+v",
			slot.Preds, slot.Succs)
	}
}

// TestBranchNeverNotAnnulled: bn without the annul bit is a two-word
// nop — the slot executes, then control falls through past it.
func TestBranchNeverNotAnnulled(t *testing.T) {
	g := buildAsm(t, `
	bn skip
	mov 1,%g1
	retl
	nop
skip:
	retl
	nop
`)
	if reps := replicas(g); len(reps) != 0 {
		t.Fatalf("bn must not replicate its delay slot; got %d replicas", len(reps))
	}
	br := primaryOf(t, g, 0)
	if len(br.Succs) != 1 || br.Succs[0].Kind != EdgeFall {
		t.Fatalf("bn successors = %+v, want one fall edge", br.Succs)
	}
	slot := g.Nodes[br.Succs[0].To]
	if slot.Index != 1 {
		t.Fatalf("bn fall edge goes to instruction %d, want the slot (1)", slot.Index)
	}
	if len(slot.Succs) != 1 || g.Nodes[slot.Succs[0].To].Index != 2 {
		t.Fatalf("slot successors = %+v, want fall to instruction 2", slot.Succs)
	}
}

// TestBranchNeverAnnulled: bn,a never takes the branch and the annul
// bit suppresses the slot, so control skips directly to slot+1. The
// slot node must not be on any path.
func TestBranchNeverAnnulled(t *testing.T) {
	g := buildAsm(t, `
	bn,a skip
	mov 1,%g1
	retl
	nop
skip:
	retl
	nop
`)
	if reps := replicas(g); len(reps) != 0 {
		t.Fatalf("bn,a must not replicate its delay slot; got %d replicas", len(reps))
	}
	br := primaryOf(t, g, 0)
	if len(br.Succs) != 1 || br.Succs[0].Kind != EdgeFall {
		t.Fatalf("bn,a successors = %+v, want one fall edge", br.Succs)
	}
	if next := g.Nodes[br.Succs[0].To]; next.Index != 2 {
		t.Fatalf("bn,a fall edge goes to instruction %d, want 2 (slot skipped)", next.Index)
	}
	slot := primaryOf(t, g, 1)
	if len(slot.Preds) != 0 || len(slot.Succs) != 0 {
		t.Fatalf("annulled slot must be disconnected; preds=%+v succs=%+v",
			slot.Preds, slot.Succs)
	}
}

// TestConditionalAnnulled: b<cond>,a executes the slot only on the
// taken path. The taken leg goes through a replica of the slot; the
// fall-through leg bypasses the slot's primary node entirely.
func TestConditionalAnnulled(t *testing.T) {
	g := buildAsm(t, `
	cmp %g1,%g2
	be,a done
	mov 1,%g1
	retl
	nop
done:
	retl
	nop
`)
	reps := replicas(g)
	if len(reps) != 1 || reps[0].Index != 2 {
		t.Fatalf("want exactly one replica of the slot (instruction 2), got %+v", reps)
	}
	rep := reps[0]
	br := primaryOf(t, g, 1)
	var taken, fall int
	for _, e := range br.Succs {
		switch e.Kind {
		case EdgeTaken:
			taken++
			if e.To != rep.ID {
				t.Errorf("taken edge goes to node %d, want the replica %d", e.To, rep.ID)
			}
		case EdgeFall:
			fall++
			if next := g.Nodes[e.To]; next.Index != 3 {
				t.Errorf("fall edge goes to instruction %d, want 3 (slot skipped)", next.Index)
			}
		default:
			t.Errorf("unexpected edge kind %v", e.Kind)
		}
	}
	if taken != 1 || fall != 1 {
		t.Fatalf("branch successors = %+v, want one taken + one fall", br.Succs)
	}
	if len(rep.Succs) != 1 || g.Nodes[rep.Succs[0].To].Index != 5 {
		t.Fatalf("replica successors = %+v, want the branch target (5)", rep.Succs)
	}
	// The slot's primary node is only reachable when the branch falls
	// through — which for an annulled slot means never.
	slot := primaryOf(t, g, 2)
	if len(slot.Preds) != 0 {
		t.Fatalf("annulled slot primary has preds %+v, want none", slot.Preds)
	}
}

// TestConditionalNotAnnulled: without the annul bit the slot executes
// on both legs — as a replica on the taken path and as its primary
// node on the fall-through path.
func TestConditionalNotAnnulled(t *testing.T) {
	g := buildAsm(t, `
	cmp %g1,%g2
	be done
	mov 1,%g1
	retl
	nop
done:
	retl
	nop
`)
	reps := replicas(g)
	if len(reps) != 1 || reps[0].Index != 2 {
		t.Fatalf("want exactly one replica of the slot (instruction 2), got %+v", reps)
	}
	rep := reps[0]
	br := primaryOf(t, g, 1)
	slot := primaryOf(t, g, 2)
	var taken, fall int
	for _, e := range br.Succs {
		switch e.Kind {
		case EdgeTaken:
			taken++
			if e.To != rep.ID {
				t.Errorf("taken edge goes to node %d, want the replica %d", e.To, rep.ID)
			}
		case EdgeFall:
			fall++
			if e.To != slot.ID {
				t.Errorf("fall edge goes to node %d, want the slot primary %d", e.To, slot.ID)
			}
		}
	}
	if taken != 1 || fall != 1 {
		t.Fatalf("branch successors = %+v, want one taken + one fall", br.Succs)
	}
	if len(slot.Succs) != 1 || g.Nodes[slot.Succs[0].To].Index != 3 {
		t.Fatalf("slot successors = %+v, want fall to instruction 3", slot.Succs)
	}
	// Replica and primary carry the same lifted semantics: the shape is
	// shared, not taken apart again, so the two nodes can never
	// disagree about what the slot instruction does.
	if rep.Shape != slot.Shape {
		t.Errorf("replica shape %+v is not the primary's %+v", rep.Shape, slot.Shape)
	}
	if rep.BranchOwner != br.ID || slot.BranchOwner != br.ID {
		t.Errorf("BranchOwner: replica=%d slot=%d, want both %d",
			rep.BranchOwner, slot.BranchOwner, br.ID)
	}
}
