package cfg

import (
	"testing"

	"mcsafe/internal/isa"
	"mcsafe/internal/rtl"
	"mcsafe/internal/sparc"
)

const fig1Source = `
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

func buildFig1(t *testing.T) *Graph {
	t.Helper()
	p, err := sparc.Arch.Assemble(fig1Source, isa.AsmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFig1GraphShape(t *testing.T) {
	g := buildFig1(t)
	// 13 primary nodes + 2 replicas (delay slots of bge and bl).
	if len(g.Nodes) != 15 {
		t.Fatalf("node count = %d, want 15", len(g.Nodes))
	}
	reps := 0
	for _, n := range g.Nodes {
		if n.Replica {
			reps++
			// Replicas replicate instructions 4 (clr %g3) and 10 (add).
			if n.Index != 4 && n.Index != 10 {
				t.Errorf("unexpected replica of instruction %d", n.Index)
			}
		}
	}
	if reps != 2 {
		t.Fatalf("replica count = %d, want 2", reps)
	}
	if len(g.Procs) != 1 {
		t.Fatalf("proc count = %d", len(g.Procs))
	}
}

func TestFig1BranchEdges(t *testing.T) {
	g := buildFig1(t)
	// Node 3 is the bge: one taken edge to a replica, one fall edge.
	bge := g.Nodes[3]
	if _, ok := bge.Shape.Ctl.(rtl.Branch); !ok {
		t.Fatalf("node 3 is %v", bge.Insn)
	}
	var taken, fall int
	for _, e := range bge.Succs {
		switch e.Kind {
		case EdgeTaken:
			taken++
			rep := g.Nodes[e.To]
			if !rep.Replica || rep.Index != 4 {
				t.Errorf("taken successor should be replica of 4, got %+v", rep)
			}
			// The replica's successor is the branch target (index 11).
			if len(rep.Succs) != 1 || g.Nodes[rep.Succs[0].To].Index != 11 {
				t.Errorf("replica successor wrong: %+v", rep.Succs)
			}
		case EdgeFall:
			fall++
			if g.Nodes[e.To].Index != 4 || g.Nodes[e.To].Replica {
				t.Errorf("fall successor should be primary slot 4")
			}
		}
	}
	if taken != 1 || fall != 1 {
		t.Fatalf("bge edges: taken=%d fall=%d", taken, fall)
	}
}

func TestFig1Loop(t *testing.T) {
	g := buildFig1(t)
	p := g.Procs[0]
	if len(p.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(p.Loops))
	}
	l := p.Loops[0]
	if g.Nodes[l.Header].Index != 5 {
		t.Errorf("loop header is instruction %d, want 5 (the sll)", g.Nodes[l.Header].Index)
	}
	// Loop body: sll(5), ld(6), inc(7), cmp(8), bl(9), replica of add(10).
	wantIdx := map[int]bool{5: true, 6: true, 7: true, 8: true, 9: true, 10: true}
	for id := range l.Body {
		if !wantIdx[g.Nodes[id].Index] {
			t.Errorf("unexpected loop member: instruction %d", g.Nodes[id].Index)
		}
	}
	if total, inner := g.LoopCounts(); total != 1 || inner != 0 {
		t.Errorf("LoopCounts = %d, %d", total, inner)
	}
}

func TestFig1Counts(t *testing.T) {
	g := buildFig1(t)
	if n := g.BranchCount(); n != 2 {
		t.Errorf("BranchCount = %d, want 2", n)
	}
	if total, trusted := g.CallCounts(); total != 0 || trusted != 0 {
		t.Errorf("CallCounts = %d, %d", total, trusted)
	}
}

func TestFig1Dominators(t *testing.T) {
	g := buildFig1(t)
	// The loop header (node for instruction 5) is dominated by the
	// entry chain; its idom should be the primary clr %g3 node (4).
	var header int
	for _, l := range g.Procs[0].Loops {
		header = l.Header
	}
	idom := g.Idom(header)
	if idom < 0 {
		t.Fatal("loop header should have an idom")
	}
	// Walking idoms from header must reach the entry.
	steps := 0
	for x := header; x != g.Entry; x = g.Idom(x) {
		if steps++; steps > 100 {
			t.Fatal("idom chain does not reach entry")
		}
		if g.Idom(x) < 0 && x != g.Entry {
			t.Fatalf("idom chain broken at %d", x)
		}
	}
}

const twoProcSource = `
main:
	save %sp,-96,%sp
	call helper
	mov %i0,%o0
	ret
	restore
helper:
	retl
	add %o0,1,%o0
`

func TestTwoProcGraph(t *testing.T) {
	p, err := sparc.Arch.Assemble(twoProcSource, isa.AsmOptions{Entry: "main"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Procs) != 2 {
		t.Fatalf("procs = %d", len(g.Procs))
	}
	if len(g.Sites) != 1 {
		t.Fatalf("sites = %d", len(g.Sites))
	}
	site := g.Sites[0]
	if site.Callee != 1 {
		t.Errorf("callee = %d", site.Callee)
	}
	if site.Return < 0 || g.Nodes[site.Return].Index != 3 {
		t.Errorf("return point = %+v", site)
	}
	// Call edge from the delay node to helper's entry.
	found := false
	for _, e := range g.Nodes[site.DelayNode].Succs {
		if e.Kind == EdgeCall && g.Nodes[e.To].Index == 5 {
			found = true
		}
	}
	if !found {
		t.Error("missing call edge")
	}
	// Return edge from helper's return node (delay slot of retl).
	foundRet := false
	for _, e := range g.Nodes[site.Return].Preds {
		if e.Kind == EdgeReturn {
			foundRet = true
		}
	}
	if !foundRet {
		t.Error("missing return edge")
	}
	// Window depths: main body at depth 1 after save, helper at depth 1.
	if g.Nodes[site.DelayNode].Depth != 1 {
		t.Errorf("delay depth = %d, want 1", g.Nodes[site.DelayNode].Depth)
	}
	helperEntry := g.Procs[1].Entry
	if g.Nodes[helperEntry].Depth != 1 {
		t.Errorf("helper depth = %d, want 1", g.Nodes[helperEntry].Depth)
	}
	if g.Nodes[g.Entry].Depth != 0 {
		t.Errorf("entry depth = %d, want 0", g.Nodes[g.Entry].Depth)
	}
	if total, trusted := g.CallCounts(); total != 1 || trusted != 0 {
		t.Errorf("CallCounts = %d, %d", total, trusted)
	}
}

func TestRecursionRejected(t *testing.T) {
	src := `
main:
	call main
	nop
	retl
	nop
`
	p, err := sparc.Arch.Assemble(src, isa.AsmOptions{Entry: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(p, Options{}); err == nil {
		t.Fatal("recursive program should be rejected")
	}
}

func TestMutualRecursionRejected(t *testing.T) {
	src := `
a:
	call b
	nop
	retl
	nop
b:
	call a
	nop
	retl
	nop
`
	p, err := sparc.Arch.Assemble(src, isa.AsmOptions{Entry: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(p, Options{}); err == nil {
		t.Fatal("mutually recursive program should be rejected")
	}
}

func TestTrustedCall(t *testing.T) {
	src := `
main:
	call gettime
	nop
	retl
	nop
gettime:
	retl
	nop
`
	p, err := sparc.Arch.Assemble(src, isa.AsmOptions{Entry: "main"})
	if err != nil {
		t.Fatal(err)
	}
	// gettime is a proc entry in the program, so it resolves as an
	// internal call even when listed as trusted... remove it from the
	// program instead: simulate by assembling only main and pointing
	// the call out of range is not representable, so here we just check
	// internal resolution works.
	g, err := Build(p, Options{TrustedFuncs: map[string]bool{"gettime": true}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Sites[0].Callee != 1 {
		t.Errorf("call should resolve internally, got %+v", g.Sites[0])
	}
}

// TestExternCallNamesLeastLabel: a call that leaves the program names
// its target by the least label at the target's index.
func TestExternCallNamesLeastLabel(t *testing.T) {
	src := `
main:
	call zz
	nop
	retl
	nop
`
	p, err := sparc.Arch.Assemble(src, isa.AsmOptions{Entry: "main", Externs: map[string]bool{"zz": true}})
	if err != nil {
		t.Fatal(err)
	}
	p.Symbols["aa"] = p.Symbols["zz"]
	g, err := Build(p, Options{TrustedFuncs: map[string]bool{"aa": true}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Sites[0].TrustedName; got != "aa" {
		t.Errorf("extern call named %q, want aa", got)
	}
	if _, err := Build(p, Options{TrustedFuncs: map[string]bool{"zz": true}}); err == nil {
		t.Error("a call whose least label is untrusted was accepted")
	}
}

func TestNestedLoops(t *testing.T) {
	src := `
outer:
	clr %o0
L1:
	clr %o1
L2:
	inc %o1
	cmp %o1,%o3
	bl L2
	nop
	inc %o0
	cmp %o0,%o2
	bl L1
	nop
	retl
	nop
`
	p, err := sparc.Arch.Assemble(src, isa.AsmOptions{Entry: "outer"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total, inner := g.LoopCounts()
	if total != 2 || inner != 1 {
		t.Fatalf("LoopCounts = %d, %d; want 2, 1", total, inner)
	}
	// The inner loop's parent must be the outer loop.
	var innerLoop *Loop
	for _, l := range g.Procs[0].Loops {
		if l.Parent != nil {
			innerLoop = l
		}
	}
	if innerLoop == nil || innerLoop.Parent.Parent != nil {
		t.Fatalf("inner loop nesting wrong: %+v", innerLoop)
	}
	if len(innerLoop.Body) >= len(innerLoop.Parent.Body) {
		t.Error("inner loop should be smaller than its parent")
	}
}

func TestAnnulledBranchEdges(t *testing.T) {
	src := `
	cmp %o0,%o1
	be,a target
	add %o0,1,%o0
	sub %o0,1,%o0
target:
	retl
	nop
`
	p, err := sparc.Arch.Assemble(src, isa.AsmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	be := g.Nodes[1]
	for _, e := range be.Succs {
		switch e.Kind {
		case EdgeTaken:
			if !g.Nodes[e.To].Replica {
				t.Error("annulled taken path should run the replica")
			}
		case EdgeFall:
			// Annulled fall-through skips the delay slot (index 2).
			if g.Nodes[e.To].Index != 3 {
				t.Errorf("annulled fall-through should skip slot, got index %d",
					g.Nodes[e.To].Index)
			}
		}
	}
}

func TestBranchIntoDelaySlotRejected(t *testing.T) {
	src := `
	cmp %o0,%o1
	be lab
lab:	add %o0,1,%o0
	retl
	nop
`
	p, err := sparc.Arch.Assemble(src, isa.AsmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(p, Options{}); err == nil {
		t.Fatal("branch into a delay slot should be rejected")
	}
}

func TestCTIInDelaySlotRejected(t *testing.T) {
	src := "ba x\nba y\nx: retl\nnop\ny: retl\nnop"
	p, err := sparc.Arch.Assemble(src, isa.AsmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(p, Options{}); err == nil {
		t.Fatal("CTI in delay slot should be rejected")
	}
}

func TestUnconditionalBranchShape(t *testing.T) {
	src := `
	ba done
	add %o0,1,%o0
	sub %o0,1,%o0
done:
	retl
	nop
`
	p, err := sparc.Arch.Assemble(src, isa.AsmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ba := g.Nodes[0]
	if len(ba.Succs) != 1 || ba.Succs[0].Kind != EdgeTaken {
		t.Fatalf("ba edges: %+v", ba.Succs)
	}
	rep := g.Nodes[ba.Succs[0].To]
	if !rep.Replica || rep.Index != 1 {
		t.Fatalf("ba successor: %+v", rep)
	}
	// The sub at index 2 is unreachable, with no predecessors.
	if len(g.Nodes[2].Preds) != 0 {
		t.Error("skipped instruction should be unreachable")
	}
}

func TestIntraViews(t *testing.T) {
	p, err := sparc.Arch.Assemble(twoProcSource, isa.AsmOptions{Entry: "main"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	site := g.Sites[0]
	// Intraprocedural successors of the call delay node summarize to
	// the return point.
	succs := g.IntraSuccs(site.DelayNode)
	if len(succs) != 1 || succs[0].Kind != EdgeSummary || succs[0].To != site.Return {
		t.Fatalf("IntraSuccs = %+v", succs)
	}
	preds := g.IntraPreds(site.Return)
	if len(preds) != 1 || preds[0].Kind != EdgeSummary || preds[0].To != site.DelayNode {
		t.Fatalf("IntraPreds = %+v", preds)
	}
	// Callee entry has no intraprocedural predecessors.
	if got := g.IntraPreds(g.Procs[1].Entry); len(got) != 0 {
		t.Fatalf("callee entry preds = %+v", got)
	}
}

func TestWindowDepthMismatchRejected(t *testing.T) {
	// Two paths reach the same instruction at different window depths.
	src := `
	cmp %o0,%g0
	be skip
	nop
	save %sp,-96,%sp
skip:
	retl
	nop
`
	p, err := sparc.Arch.Assemble(src, isa.AsmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(p, Options{}); err == nil {
		t.Fatal("inconsistent window depth should be rejected")
	}
}

func TestRestoreUnderflowRejected(t *testing.T) {
	src := "restore\nretl\nnop"
	p, err := sparc.Arch.Assemble(src, isa.AsmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(p, Options{}); err == nil {
		t.Fatal("window underflow should be rejected")
	}
}
