// Package cfg builds control-flow graphs from decoded machine code in
// ISA-neutral form. Nodes represent instructions; on architectures with
// delayed branches (the DelaySlots trait), the delay-slot instruction is
// replicated on the taken path, exactly as in Section 5.2.2 of the paper
// ("the instructions at lines 5 and 11 are replicated to model the
// semantics of delayed branches"). On architectures without delay slots
// the wiring degenerates to plain two-way edges. The package also
// computes dominators, back edges, natural loops with nesting,
// reducibility, the call graph (rejecting recursion, per Section 5.2.1),
// and static register-window depths.
package cfg

import (
	"fmt"
	"sort"

	"mcsafe/internal/faults"
	"mcsafe/internal/isa"
	"mcsafe/internal/rtl"
)

// EdgeKind labels a control-flow edge.
type EdgeKind int

const (
	// EdgeFall is ordinary fall-through (or the not-taken leg of a
	// conditional branch).
	EdgeFall EdgeKind = iota
	// EdgeTaken is the taken leg of a conditional branch.
	EdgeTaken
	// EdgeCall enters a callee from a call site's delay slot.
	EdgeCall
	// EdgeReturn leaves a callee's return node for a return point.
	EdgeReturn
	// EdgeSummary is the intraprocedural summary of a call: delay slot
	// directly to the return point.
	EdgeSummary
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeFall:
		return "fall"
	case EdgeTaken:
		return "taken"
	case EdgeCall:
		return "call"
	case EdgeReturn:
		return "return"
	case EdgeSummary:
		return "summary"
	}
	return "?"
}

// Edge is a directed control-flow edge.
type Edge struct {
	To   int
	Kind EdgeKind
	// Site is the call-site ID for EdgeCall/EdgeReturn/EdgeSummary.
	Site int
}

// Node is one executed instruction occurrence. Delay slots of taken
// branches are replicas of the underlying instruction.
type Node struct {
	ID    int
	Insn  isa.Insn
	Index int // original instruction index in the program
	// Shape is the instruction's lifted effect sequence taken apart by
	// role, computed once per instruction and shared between a primary
	// node and its delay-slot replicas. All analyses read the semantics
	// through it, not by scanning Insn.RTL.
	Shape *rtl.Shape
	// Site is the call site of a call node (nil on every other node).
	Site *CallSite
	// Replica marks a delay-slot copy placed on a taken path.
	Replica bool
	// Proc is the procedure this node belongs to.
	Proc int
	// Depth is the static register-window depth (entry procedure = 0).
	Depth int
	// BranchOwner, for delay-slot nodes, is the node ID of the control
	// transfer instruction whose slot this is (-1 otherwise).
	BranchOwner int

	Succs []Edge
	Preds []Edge
}

// CallSite records one call instruction and its plumbing.
type CallSite struct {
	ID       int
	CallNode int // the call instruction node
	// DelayNode is the node executed last before entering the callee: the
	// delay-slot node on delay-slot architectures, the call node itself
	// otherwise.
	DelayNode int
	Return    int // node that receives control after the callee returns (-1 if none)
	Callee    int // procedure index, -1 for calls to trusted/external targets
	// TrustedName is the symbol name for calls that leave the program
	// (resolved against the policy's trusted functions).
	TrustedName string
}

// Proc is one procedure: a contiguous span of instructions.
type Proc struct {
	Index int
	Name  string
	Entry int // node ID of the entry
	// Lo, Hi bound the original instruction indexes [Lo, Hi).
	Lo, Hi int
	// Nodes lists node IDs belonging to this procedure.
	Nodes []int
	// Returns lists node IDs of return nodes (the delay-slot node of a
	// ret on delay-slot architectures, the return instruction itself
	// otherwise).
	Returns []int
	// Loops are the natural loops of the procedure, outermost first.
	Loops []*Loop
	// RPO is a reverse postorder of the procedure's intraprocedural
	// view (call edges summarized), for forward dataflow and backward
	// walks.
	RPO []int
}

// Loop is a natural loop.
type Loop struct {
	Header  int
	Latches []int
	// Body is the set of node IDs in the loop (including Header).
	Body map[int]bool
	// Parent is the immediately enclosing loop, nil for top level.
	Parent *Loop
	// Children are immediately nested loops.
	Children []*Loop
	// Exits are edges leaving the loop (from node in body to node
	// outside).
	Exits []Edge
}

// Contains reports whether the loop body contains node id.
func (l *Loop) Contains(id int) bool { return l.Body[id] }

// Graph is the interprocedural control-flow graph of a program.
type Graph struct {
	Prog  *isa.Program
	Nodes []*Node
	Procs []*Proc
	Sites []*CallSite
	// Entry is the node ID where execution starts.
	Entry int
	// EntryProc is the procedure containing Entry.
	EntryProc int
	// idom maps node ID to immediate dominator node ID within its
	// procedure's intraprocedural view (-1 for proc entries).
	idom []int
	// loopOf maps node ID to its innermost enclosing loop (nil if none).
	loopOf []*Loop
}

// Options configures graph construction.
type Options struct {
	// TrustedFuncs names call targets that are trusted host functions;
	// calls to them do not enter a callee in the graph.
	TrustedFuncs map[string]bool
}

// Build constructs the interprocedural CFG for a program and runs all
// structural analyses (dominators, loops, reducibility, call graph,
// window depths).
func Build(prog *isa.Program, opts Options) (*Graph, error) {
	g, err := construct(prog, opts)
	if err != nil {
		return nil, err
	}
	if err := g.checkRecursion(); err != nil {
		return nil, err
	}
	if err := g.computeDepths(); err != nil {
		return nil, err
	}
	if err := g.analyzeProcs(); err != nil {
		return nil, err
	}
	return g, nil
}

// construct wires nodes and edges without running the analyses.
func construct(prog *isa.Program, opts Options) (*Graph, error) {
	g := &Graph{Prog: prog}
	n := len(prog.Insns)
	if n == 0 {
		return nil, fmt.Errorf("cfg: empty program")
	}
	delaySlots := prog.Arch.Traits().DelaySlots

	// Procedure spans: contiguous from each proc entry to the next.
	type span struct {
		name   string
		lo, hi int
	}
	var spans []span
	entries := make([]int, 0, len(prog.Procs))
	for _, name := range prog.Procs {
		idx := prog.Symbols[name]
		if idx < n {
			entries = append(entries, idx)
		}
	}
	sort.Ints(entries)
	if len(entries) == 0 || entries[0] != 0 {
		// Ensure instruction 0 belongs to some procedure.
		if _, covered := containsInt(entries, prog.Entry); !covered {
			entries = append([]int{prog.Entry}, entries...)
		}
	}
	seen := map[int]bool{}
	uniq := entries[:0]
	for _, e := range entries {
		if !seen[e] {
			seen[e] = true
			uniq = append(uniq, e)
		}
	}
	entries = uniq
	nameAt := map[int]string{}
	for _, name := range prog.Procs {
		nameAt[prog.Symbols[name]] = name
	}
	for i, lo := range entries {
		hi := n
		if i+1 < len(entries) {
			hi = entries[i+1]
		}
		name := nameAt[lo]
		if name == "" {
			name = fmt.Sprintf("proc_%d", lo)
		}
		spans = append(spans, span{name: name, lo: lo, hi: hi})
	}
	procOfIndex := make([]int, n)
	for i := range procOfIndex {
		procOfIndex[i] = -1
	}
	for pi, s := range spans {
		g.Procs = append(g.Procs, &Proc{Index: pi, Name: s.name, Lo: s.lo, Hi: s.hi})
		for idx := s.lo; idx < s.hi; idx++ {
			procOfIndex[idx] = pi
		}
	}

	// The front-end lifts each instruction once, and its effects are
	// taken apart by role once here; primaries and replicas share the
	// shape.
	shapes := make([]rtl.Shape, n)
	for idx, insn := range prog.Insns {
		if insn.RTL == nil {
			return nil, fmt.Errorf("cfg: instruction %d has no RTL lifting (%s)", idx, insn.Text)
		}
		var ok bool
		if shapes[idx], ok = rtl.ShapeOf(insn.RTL); !ok {
			return nil, fmt.Errorf("cfg: instruction %d lifts two effects of one role (%s)", idx, insn.Text)
		}
	}

	// One primary node per instruction.
	primary := make([]int, n)
	for idx := 0; idx < n; idx++ {
		node := &Node{
			ID:          len(g.Nodes),
			Insn:        prog.Insns[idx],
			Index:       idx,
			Shape:       &shapes[idx],
			Proc:        procOfIndex[idx],
			BranchOwner: -1,
		}
		primary[idx] = node.ID
		g.Nodes = append(g.Nodes, node)
	}

	addReplica := func(idx int, owner int) int {
		node := &Node{
			ID:          len(g.Nodes),
			Insn:        prog.Insns[idx],
			Index:       idx,
			Shape:       &shapes[idx],
			Replica:     true,
			Proc:        procOfIndex[idx],
			BranchOwner: owner,
		}
		g.Nodes = append(g.Nodes, node)
		return node.ID
	}

	addEdge := func(from, to int, kind EdgeKind, site int) {
		g.Nodes[from].Succs = append(g.Nodes[from].Succs, Edge{To: to, Kind: kind, Site: site})
		g.Nodes[to].Preds = append(g.Nodes[to].Preds, Edge{To: from, Kind: kind, Site: site})
	}

	trusted := opts.TrustedFuncs
	procEntryIdx := map[int]int{} // instruction index -> proc index
	for pi, s := range spans {
		procEntryIdx[s.lo] = pi
	}
	// A call leaving the program names its target by the least label
	// at the target's index.
	labels := prog.Labels()

	// A control-transfer instruction carries a Branch, Call, or Jump
	// effect. On delay-slot architectures the following instruction is
	// its delay slot, which may be neither a branch target nor itself a
	// control transfer; collect them for validation.
	delaySlot := make([]bool, n)
	branchTarget := make([]bool, n)
	for idx := range shapes {
		faults.Fire(faults.Lift)
		ctl := shapes[idx].Ctl
		if delaySlots && ctl != nil {
			if idx+1 >= n {
				return nil, fmt.Errorf("cfg: control transfer at %d has no delay slot", idx)
			}
			if shapes[idx+1].Ctl != nil {
				return nil, fmt.Errorf("cfg: control transfer in delay slot at %d", idx+1)
			}
			delaySlot[idx+1] = true
		}
		if br, ok := ctl.(rtl.Branch); ok {
			tgt := idx + int(br.Disp)
			if tgt < 0 || tgt >= n {
				return nil, fmt.Errorf("cfg: branch at %d targets %d, out of range", idx, tgt)
			}
			branchTarget[tgt] = true
		}
	}
	for idx := 0; idx < n; idx++ {
		if delaySlot[idx] && branchTarget[idx] {
			return nil, fmt.Errorf("cfg: instruction %d is both a delay slot and a branch target", idx)
		}
	}

	// Wire edges.
	for idx := 0; idx < n; idx++ {
		id := primary[idx]
		switch ctl := shapes[idx].Ctl.(type) {
		case rtl.Branch:
			br := ctl
			tgt := idx + int(br.Disp)
			if !delaySlots {
				// No delay slot: a conditional branch is a plain two-way
				// split; an unconditional one a goto.
				switch br.Cond {
				case rtl.CondAlways:
					addEdge(id, primary[tgt], EdgeTaken, -1)
				case rtl.CondNever:
					if idx+1 < n {
						addEdge(id, primary[idx+1], EdgeFall, -1)
					}
				default:
					addEdge(id, primary[tgt], EdgeTaken, -1)
					if idx+1 < n {
						addEdge(id, primary[idx+1], EdgeFall, -1)
					}
				}
				break
			}
			slot := idx + 1
			g.Nodes[primary[slot]].BranchOwner = id
			if br.Cond == rtl.CondAlways {
				if br.Annul {
					// ba,a: delay slot never executes.
					addEdge(id, primary[tgt], EdgeTaken, -1)
				} else {
					rep := addReplica(slot, id)
					addEdge(id, rep, EdgeTaken, -1)
					addEdge(rep, primary[tgt], EdgeFall, -1)
				}
			} else if br.Cond == rtl.CondNever {
				if br.Annul {
					// bn,a: never taken with the annul bit set, so the
					// delay slot never executes (matching the
					// interpreter's untaken-annulled semantics).
					if slot+1 < n {
						addEdge(id, primary[slot+1], EdgeFall, -1)
					}
				} else {
					// bn: never taken; acts like a nop pair.
					addEdge(id, primary[slot], EdgeFall, -1)
					if slot+1 < n {
						addEdge(primary[slot], primary[slot+1], EdgeFall, -1)
					}
				}
			} else {
				// Conditional: taken path via replica, fall-through
				// via the primary slot node (skipped if annulled).
				rep := addReplica(slot, id)
				addEdge(id, rep, EdgeTaken, -1)
				addEdge(rep, primary[tgt], EdgeFall, -1)
				if br.Annul {
					if slot+1 < n {
						addEdge(id, primary[slot+1], EdgeFall, -1)
					}
				} else {
					addEdge(id, primary[slot], EdgeFall, -1)
					if slot+1 < n {
						addEdge(primary[slot], primary[slot+1], EdgeFall, -1)
					}
				}
			}

		case rtl.Call:
			tgt := idx + int(ctl.Disp)
			site := &CallSite{ID: len(g.Sites), CallNode: id, DelayNode: id, Callee: -1}
			g.Nodes[id].Site = site
			retIdx := idx + 1
			if delaySlots {
				slot := idx + 1
				g.Nodes[primary[slot]].BranchOwner = id
				site.DelayNode = primary[slot]
				retIdx = idx + 2
			}
			if tgt >= 0 && tgt < n {
				if pi, ok := procEntryIdx[tgt]; ok {
					site.Callee = pi
				} else {
					return nil, fmt.Errorf("cfg: call at %d targets %d, not a procedure entry", idx, tgt)
				}
			}
			if site.Callee == -1 {
				// Call leaving the program: resolve by label name.
				name := labels[tgt]
				if name == "" || (trusted != nil && !trusted[name]) {
					return nil, fmt.Errorf("cfg: call at %d targets unknown/untrusted %q", idx, name)
				}
				site.TrustedName = name
			}
			if retIdx < n {
				site.Return = primary[retIdx]
			} else {
				site.Return = -1
			}
			g.Sites = append(g.Sites, site)
			if delaySlots {
				addEdge(id, site.DelayNode, EdgeFall, -1)
			}
			if site.Callee >= 0 {
				addEdge(site.DelayNode, primary[spans[site.Callee].lo], EdgeCall, site.ID)
				// Return edges are added after return nodes are known.
			} else if site.Return >= 0 {
				// Trusted call: summary edge to the return point.
				addEdge(site.DelayNode, site.Return, EdgeSummary, site.ID)
			}

		case rtl.Jump:
			if !prog.Insns[idx].Ret {
				return nil, fmt.Errorf("cfg: indirect jump at %d is not supported (only returns)", idx)
			}
			retNode := id
			if delaySlots {
				slot := idx + 1
				g.Nodes[primary[slot]].BranchOwner = id
				addEdge(id, primary[slot], EdgeFall, -1)
				// The delay-slot node is the procedure's return node.
				retNode = primary[slot]
			}
			// Return edges added below.
			g.Procs[procOfIndex[idx]].Returns = append(g.Procs[procOfIndex[idx]].Returns, retNode)

		default:
			// Ordinary instruction: plain fall-through. Delay-slot
			// nodes are skipped; their edges were added by the owning
			// control-transfer instruction.
			if !delaySlot[idx] && idx+1 < n {
				addEdge(id, primary[idx+1], EdgeFall, -1)
			}
		}
	}

	// Return edges: from each callee's return nodes to each site's
	// return point.
	for _, site := range g.Sites {
		if site.Callee < 0 || site.Return < 0 {
			continue
		}
		for _, ret := range g.Procs[site.Callee].Returns {
			addEdge(ret, site.Return, EdgeReturn, site.ID)
		}
	}

	g.Entry = primary[prog.Entry]
	g.EntryProc = procOfIndex[prog.Entry]

	// Assign nodes to procedures.
	for _, node := range g.Nodes {
		if node.Proc >= 0 {
			g.Procs[node.Proc].Nodes = append(g.Procs[node.Proc].Nodes, node.ID)
		}
	}
	for _, p := range g.Procs {
		p.Entry = primary[p.Lo]
	}

	return g, nil
}

func containsInt(xs []int, v int) (int, bool) {
	for i, x := range xs {
		if x == v {
			return i, true
		}
	}
	return 0, false
}

// checkRecursion rejects recursive call graphs (Section 5.2.1: "our
// present system detects and rejects recursive programs").
func (g *Graph) checkRecursion() error {
	adj := make(map[int][]int)
	for _, site := range g.Sites {
		if site.Callee < 0 {
			continue
		}
		caller := g.Nodes[site.CallNode].Proc
		adj[caller] = append(adj[caller], site.Callee)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(g.Procs))
	var visit func(p int) error
	visit = func(p int) error {
		color[p] = gray
		for _, q := range adj[p] {
			switch color[q] {
			case gray:
				return fmt.Errorf("cfg: recursive call involving procedure %q", g.Procs[q].Name)
			case white:
				if err := visit(q); err != nil {
					return err
				}
			}
		}
		color[p] = black
		return nil
	}
	for p := range g.Procs {
		if color[p] == white {
			if err := visit(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// computeDepths assigns a static register-window depth to every node
// reachable from the entry and rejects inconsistent window usage. On
// architectures without register windows every node stays at depth 0.
func (g *Graph) computeDepths() error {
	depth := make([]int, len(g.Nodes))
	for i := range depth {
		depth[i] = -1 << 30 // unassigned
	}
	const unassigned = -1 << 30
	depth[g.Entry] = 0
	work := []int{g.Entry}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		d := depth[id]
		out := d + g.Nodes[id].Shape.Win
		if out < 0 {
			return fmt.Errorf("cfg: restore at node %d underflows the register window", id)
		}
		for _, e := range g.Nodes[id].Succs {
			want := out
			if depth[e.To] == unassigned {
				depth[e.To] = want
				work = append(work, e.To)
			} else if depth[e.To] != want {
				return fmt.Errorf("cfg: inconsistent register-window depth at node %d (%d vs %d)",
					e.To, depth[e.To], want)
			}
		}
	}
	for _, node := range g.Nodes {
		if depth[node.ID] == unassigned {
			depth[node.ID] = 0 // unreachable; harmless default
		}
		node.Depth = depth[node.ID]
	}
	return nil
}
