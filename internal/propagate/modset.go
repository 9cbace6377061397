package propagate

import (
	"sort"

	"mcsafe/internal/cfg"
	"mcsafe/internal/rtl"
)

// modSet describes the abstract locations a procedure (transitively) may
// modify. Return edges restore the caller's values for everything else,
// which keeps the context-insensitive interprocedural analysis from
// smearing caller-local state across call sites.
type modSet struct {
	// regs are the store slots of the registers it may write, ascending.
	regs []int
	// mem is true when the procedure (transitively) stores to memory or
	// calls a trusted function: all non-register locations (slots not
	// marked as registers; see Result.isReg) count as modified.
	mem bool
}

// computeModSets builds the per-procedure modification summaries,
// processing callees before callers (the call graph is acyclic). The
// written locations of each node are read off its effect shape and call
// site; regSlot numbers a register at a window depth.
func computeModSets(g *cfg.Graph, regSlot func(rtl.Reg, int) int) []*modSet {
	sets := make([]*modSet, len(g.Procs))
	conv := g.Prog.Arch.Conv()

	// Reverse-topological order over the call graph.
	adj := make(map[int][]int)
	for _, site := range g.Sites {
		if site.Callee >= 0 {
			caller := g.Nodes[site.CallNode].Proc
			adj[caller] = append(adj[caller], site.Callee)
		}
	}
	var order []int
	state := make([]int, len(g.Procs))
	var visit func(p int)
	visit = func(p int) {
		state[p] = 1
		for _, q := range adj[p] {
			if state[q] == 0 {
				visit(q)
			}
		}
		state[p] = 2
		order = append(order, p)
	}
	for p := range g.Procs {
		if state[p] == 0 {
			visit(p)
		}
	}

	for _, pi := range order {
		ms := &modSet{}
		sets[pi] = ms
		regs := map[int]bool{}
		for _, id := range g.Procs[pi].Nodes {
			node := g.Nodes[id]
			d := node.Depth
			addReg := func(r rtl.Reg, depth int) {
				if r != rtl.ZeroReg {
					regs[regSlot(r, depth)] = true
				}
			}
			sh := node.Shape
			if sh.Win > 0 {
				// Entering a window makes every register of the new
				// window writable.
				win := conv.Window
				for k := 0; k < win.Size; k++ {
					addReg(win.Out+rtl.Reg(k), d+1)
					addReg(win.Local+rtl.Reg(k), d+1)
					addReg(win.In+rtl.Reg(k), d+1)
				}
			}
			if a := sh.Assign(); a != nil && a.Win <= 0 {
				// A Win=+1 write is subsumed by the sweep above.
				addReg(a.Dst, d+a.Win)
			}
			switch m := sh.Mem.(type) {
			case rtl.Load:
				addReg(m.Dst, d)
			case rtl.Store:
				ms.mem = true
			case rtl.Unsupported:
				if m.Store {
					ms.mem = true
				} else {
					addReg(m.Dst, d)
				}
			}
			if site := node.Site; site != nil {
				if site.Callee >= 0 {
					callee := sets[site.Callee]
					if callee != nil {
						for _, i := range callee.regs {
							regs[i] = true
						}
						ms.mem = ms.mem || callee.mem
					}
				} else {
					// Trusted call: caller-saved registers plus any
					// host memory.
					for _, r := range conv.CallClobbered {
						addReg(r, d)
					}
					ms.mem = true
				}
			}
		}
		for i := range regs {
			ms.regs = append(ms.regs, i)
		}
		sort.Ints(ms.regs)
	}
	return sets
}
