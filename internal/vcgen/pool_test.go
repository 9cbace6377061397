package vcgen

import (
	"reflect"
	"testing"

	"mcsafe/internal/annotate"
	"mcsafe/internal/expr"
)

// TestBuildChunksPartition checks the pool's work partition: every
// condition index is covered exactly once, items appear in condition
// order, and the partition is a pure function of the condition list
// (the determinism precondition — it must not vary run to run).
func TestBuildChunksPartition(t *testing.T) {
	pl := build(t, fig1Asm, fig1Spec, "")
	conds := pl.ann.Conds
	chunks := buildChunks(conds)

	seen := make([]int, len(conds))
	last := -1
	for _, chunk := range chunks {
		if len(chunk) == 0 {
			t.Fatal("empty chunk")
		}
		for _, it := range chunk {
			if it.group != nil {
				for _, idx := range it.group.members {
					seen[idx]++
				}
				if first := it.group.members[0]; first <= last {
					t.Fatalf("group at %d out of order (after %d)", first, last)
				} else {
					last = first
				}
			} else {
				seen[it.single]++
				if it.single <= last {
					t.Fatalf("item %d out of order (after %d)", it.single, last)
				}
				last = it.single
			}
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("condition %d covered %d times", i, n)
		}
	}

	for rep := 0; rep < 5; rep++ {
		if again := buildChunks(conds); !reflect.DeepEqual(again, chunks) {
			t.Fatal("partition changed between calls")
		}
	}
}

// TestScheduleChunksCheapestFirst checks the chunk schedule: a
// permutation of all chunk indices, ordered by nondecreasing summed
// formula size with ties broken by chunk index, and identical across
// repeated calls.
func TestScheduleChunksCheapestFirst(t *testing.T) {
	pl := build(t, fig1Asm, fig1Spec, "")
	conds := pl.ann.Conds
	chunks := buildChunks(conds)
	order := scheduleChunks(conds, chunks)

	if len(order) != len(chunks) {
		t.Fatalf("schedule has %d entries for %d chunks", len(order), len(chunks))
	}
	seen := make([]bool, len(chunks))
	for _, i := range order {
		if i < 0 || i >= len(chunks) || seen[i] {
			t.Fatalf("schedule %v is not a permutation of chunk indices", order)
		}
		seen[i] = true
	}

	cost := func(chunk []workItem) int {
		total := 0
		for _, it := range chunk {
			if it.group != nil {
				for _, idx := range it.group.members {
					total += expr.Size(conds[idx].F)
				}
			} else {
				total += expr.Size(conds[it.single].F)
			}
		}
		return total
	}
	for k := 1; k < len(order); k++ {
		a, b := order[k-1], order[k]
		ca, cb := cost(chunks[a]), cost(chunks[b])
		if ca > cb {
			t.Fatalf("schedule position %d: chunk %d (cost %d) before chunk %d (cost %d)",
				k, a, ca, b, cb)
		}
		if ca == cb && a > b {
			t.Fatalf("schedule position %d: tie between chunks %d and %d broken against index order",
				k, a, b)
		}
	}

	for rep := 0; rep < 5; rep++ {
		if again := scheduleChunks(conds, chunks); !reflect.DeepEqual(again, order) {
			t.Fatal("schedule changed between calls")
		}
	}
}

// TestStatsAdd: Add sums every counter. Each field gets a distinct
// value by reflection, so a counter added to Stats but left out of Add
// fails here.
func TestStatsAdd(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("%s = %d after Add, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}

// proveReference is the sequential loop Phase 5 ran before the pool
// became its only path, kept as a test oracle: one engine and one
// prover for every condition, every bounds group proved up front, then
// each condition in order.
func (e *Engine) proveReference(conds []*annotate.GlobalCond) []CondResult {
	return e.proveSequential(conds, e.proveCond)
}

// proveReferenceBareFirst is proveReference with the attempt order
// proveCond used before the facts attempt existed, kept as a test
// oracle for it.
func (e *Engine) proveReferenceBareFirst(conds []*annotate.GlobalCond) []CondResult {
	return e.proveSequential(conds, e.proveCondBareFirst)
}

func (e *Engine) proveSequential(conds []*annotate.GlobalCond, prove func(*annotate.GlobalCond, bool) CondResult) []CondResult {
	groupProved := make([]bool, len(conds))
	for _, g := range boundsGroups(conds) {
		if e.proveGroup(conds, g) {
			for _, idx := range g.members {
				groupProved[idx] = true
			}
		}
	}
	out := make([]CondResult, len(conds))
	for i, c := range conds {
		out[i] = prove(c, groupProved[i])
	}
	return out
}

// proveCondBareFirst is proveCond with its former attempt order: the
// bare predicate, then the with-facts implication, whatever the facts
// mention.
func (e *Engine) proveCondBareFirst(c *annotate.GlobalCond, groupProved bool) CondResult {
	r := CondResult{Cond: c, Proved: groupProved}
	e.beginCond()
	attempt := func(kind string, f expr.Formula) bool {
		ok := e.proveAt(c.Node, c.AfterNode, expr.Simplify(f))
		r.Attempts = append(r.Attempts, Attempt{Kind: kind, Proved: ok})
		return ok
	}
	if groupProved {
		r.Attempts = append(r.Attempts, Attempt{Kind: "group", Proved: true})
	} else if reason := e.P.ResourceStop(); reason != "" {
		r.Resource = true
		r.Detail = "not attempted: " + reason
	} else {
		r.Proved = attempt("bare", c.F)
		if _, noFacts := c.Facts.(expr.TrueF); !r.Proved && !noFacts {
			r.Proved = attempt("with-facts", expr.Implies(c.Facts, c.F))
		}
		if reason := e.P.ResourceStop(); !r.Proved && reason != "" {
			r.Resource = true
			r.Detail = "unproven: " + reason
		}
	}
	e.Stats.Conditions++
	if r.Proved {
		e.Stats.Proved++
	} else if r.Detail == "" {
		r.Detail = "cannot establish " + e.P.Intern.StringOf(c.F)
	}
	return r
}
