package cfg

import (
	"fmt"
	"sort"

	"mcsafe/internal/rtl"
)

// IntraSuccs returns the successors of a node in the intraprocedural view:
// EdgeCall and EdgeReturn edges are replaced by the call site's summary
// (delay slot -> return point), so each procedure is a self-contained
// graph. The paper partitions each procedure's control-flow graph into
// cyclic and acyclic regions on this view (Section 5.2).
func (g *Graph) IntraSuccs(id int) []Edge {
	node := g.Nodes[id]
	var out []Edge
	for _, e := range node.Succs {
		switch e.Kind {
		case EdgeCall:
			site := g.Sites[e.Site]
			if site.Return >= 0 {
				out = append(out, Edge{To: site.Return, Kind: EdgeSummary, Site: e.Site})
			}
		case EdgeReturn:
			// Skipped: the callee's exit belongs to the callee's view.
		default:
			out = append(out, e)
		}
	}
	return out
}

// IntraPreds is the predecessor mirror of IntraSuccs.
func (g *Graph) IntraPreds(id int) []Edge {
	node := g.Nodes[id]
	var out []Edge
	for _, e := range node.Preds {
		switch e.Kind {
		case EdgeReturn:
			site := g.Sites[e.Site]
			out = append(out, Edge{To: site.DelayNode, Kind: EdgeSummary, Site: e.Site})
		case EdgeCall:
			// Skipped: a procedure entry's intraprocedural view has no
			// predecessors.
		case EdgeSummary:
			out = append(out, e)
		default:
			out = append(out, e)
		}
	}
	return out
}

// analyzeProcs computes, per procedure: reverse postorder, dominators,
// natural loops (with nesting), and checks reducibility.
func (g *Graph) analyzeProcs() error {
	g.idom = make([]int, len(g.Nodes))
	g.loopOf = make([]*Loop, len(g.Nodes))
	for i := range g.idom {
		g.idom[i] = -1
	}
	for _, p := range g.Procs {
		if err := g.analyzeProc(p); err != nil {
			return err
		}
	}
	return nil
}

func (g *Graph) analyzeProc(p *Proc) error {
	// DFS from the entry over the intraprocedural view.
	post := []int{}
	state := map[int]int{} // 0 unvisited, 1 on stack, 2 done
	retreat := map[[2]int]bool{}

	type frame struct {
		id   int
		succ []Edge
		i    int
	}
	stack := []frame{{id: p.Entry, succ: g.IntraSuccs(p.Entry)}}
	state[p.Entry] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(f.succ) {
			e := f.succ[f.i]
			f.i++
			switch state[e.To] {
			case 0:
				state[e.To] = 1
				stack = append(stack, frame{id: e.To, succ: g.IntraSuccs(e.To)})
			case 1:
				retreat[[2]int{f.id, e.To}] = true
			}
			continue
		}
		state[f.id] = 2
		post = append(post, f.id)
		stack = stack[:len(stack)-1]
	}

	// Reverse postorder.
	rpo := make([]int, len(post))
	for i, id := range post {
		rpo[len(post)-1-i] = id
	}
	p.RPO = rpo
	rpoIndex := map[int]int{}
	for i, id := range rpo {
		rpoIndex[id] = i
	}

	// Iterative dominators (Cooper-Harvey-Kennedy).
	idom := map[int]int{p.Entry: p.Entry}
	changed := true
	for changed {
		changed = false
		for _, id := range rpo {
			if id == p.Entry {
				continue
			}
			newIdom := -1
			for _, e := range g.IntraPreds(id) {
				pr := e.To
				if _, ok := idom[pr]; !ok {
					continue
				}
				if newIdom == -1 {
					newIdom = pr
				} else {
					newIdom = g.intersect(idom, rpoIndex, pr, newIdom)
				}
			}
			if newIdom == -1 {
				continue
			}
			if old, ok := idom[id]; !ok || old != newIdom {
				idom[id] = newIdom
				changed = true
			}
		}
	}
	for id, d := range idom {
		if id == p.Entry {
			g.idom[id] = -1
		} else {
			g.idom[id] = d
		}
	}

	dominates := func(a, b int) bool {
		// Does a dominate b?
		for x := b; ; {
			if x == a {
				return true
			}
			d, ok := idom[x]
			if !ok || d == x {
				return a == x
			}
			x = d
		}
	}

	// Reducibility: every retreating edge must be a back edge (target
	// dominates source).
	for e := range retreat {
		if !dominates(e[1], e[0]) {
			return fmt.Errorf("cfg: procedure %q is irreducible (retreating edge %d->%d)",
				p.Name, e[0], e[1])
		}
	}

	// Natural loops from back edges; merge loops sharing a header.
	loopsByHeader := map[int]*Loop{}
	for e := range retreat {
		latch, header := e[0], e[1]
		loop := loopsByHeader[header]
		if loop == nil {
			loop = &Loop{Header: header, Body: map[int]bool{header: true}}
			loopsByHeader[header] = loop
		}
		loop.Latches = append(loop.Latches, latch)
		// Nodes that reach the latch without passing the header.
		work := []int{latch}
		for len(work) > 0 {
			id := work[len(work)-1]
			work = work[:len(work)-1]
			if loop.Body[id] {
				continue
			}
			loop.Body[id] = true
			for _, pe := range g.IntraPreds(id) {
				if !loop.Body[pe.To] {
					work = append(work, pe.To)
				}
			}
		}
	}

	var loops []*Loop
	for _, l := range loopsByHeader {
		sort.Ints(l.Latches)
		loops = append(loops, l)
	}
	// Sort by body size descending so parents come before children.
	sort.Slice(loops, func(i, j int) bool {
		if len(loops[i].Body) != len(loops[j].Body) {
			return len(loops[i].Body) > len(loops[j].Body)
		}
		return loops[i].Header < loops[j].Header
	})
	for i, l := range loops {
		// Parent: smallest enclosing earlier loop.
		for j := i - 1; j >= 0; j-- {
			if loops[j].Body[l.Header] && loops[j] != l {
				if l.Parent == nil || len(loops[j].Body) < len(l.Parent.Body) {
					l.Parent = loops[j]
				}
			}
		}
		if l.Parent != nil {
			l.Parent.Children = append(l.Parent.Children, l)
		}
	}
	// Exits.
	for _, l := range loops {
		for id := range l.Body {
			for _, e := range g.IntraSuccs(id) {
				if !l.Body[e.To] {
					l.Exits = append(l.Exits, Edge{To: e.To, Kind: e.Kind, Site: e.Site})
				}
			}
		}
	}
	p.Loops = loops

	// Innermost loop per node.
	for _, l := range loops {
		for id := range l.Body {
			cur := g.loopOf[id]
			if cur == nil || len(l.Body) < len(cur.Body) {
				g.loopOf[id] = l
			}
		}
	}
	return nil
}

func (g *Graph) intersect(idom map[int]int, rpoIndex map[int]int, a, b int) int {
	for a != b {
		for rpoIndex[a] > rpoIndex[b] {
			a = idom[a]
		}
		for rpoIndex[b] > rpoIndex[a] {
			b = idom[b]
		}
	}
	return a
}

// Idom returns the immediate dominator of a node (-1 for procedure
// entries).
func (g *Graph) Idom(id int) int { return g.idom[id] }

// InnermostLoop returns the innermost natural loop containing the node,
// or nil.
func (g *Graph) InnermostLoop(id int) *Loop { return g.loopOf[id] }

// LoopCounts returns (total, inner) loop counts over the whole program,
// matching the "Loops (Inner loops)" row of Figure 9 where the
// parenthesized number counts loops nested inside another loop.
func (g *Graph) LoopCounts() (total, inner int) {
	for _, p := range g.Procs {
		for _, l := range p.Loops {
			total++
			if l.Parent != nil {
				inner++
			}
		}
	}
	return
}

// BranchCount counts conditional branch instructions (Figure 9's
// "Branches" row counts branch instructions in the original code).
func (g *Graph) BranchCount() int {
	n := 0
	for _, node := range g.Nodes {
		if node.Replica {
			continue
		}
		if br, ok := node.Shape.Ctl.(rtl.Branch); ok && br.Cond != rtl.CondAlways {
			n++
		}
	}
	return n
}

// CallCounts returns (total, trusted) call-site counts.
func (g *Graph) CallCounts() (total, trusted int) {
	for _, site := range g.Sites {
		total++
		if site.Callee < 0 {
			trusted++
		}
	}
	return
}

// ProcOf returns the procedure a node belongs to.
func (g *Graph) ProcOf(id int) *Proc { return g.Procs[g.Nodes[id].Proc] }

// ProcAtLabel returns the procedure whose entry the label marks, resolved
// through the program's symbols: any label at the entry, not only the
// least one the procedure is named by.
func (g *Graph) ProcAtLabel(label string) (*Proc, bool) {
	idx, ok := g.Prog.Symbols[label]
	if !ok {
		return nil, false
	}
	i := sort.Search(len(g.Procs), func(i int) bool { return g.Procs[i].Lo >= idx })
	if i < len(g.Procs) && g.Procs[i].Lo == idx {
		return g.Procs[i], true
	}
	return nil, false
}
