package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mcsafe"
	"mcsafe/internal/annotate"
	"mcsafe/internal/cfg"
	"mcsafe/internal/expr"
	"mcsafe/internal/isa"
	"mcsafe/internal/obs"
	"mcsafe/internal/policy"
	"mcsafe/internal/propagate"
	"mcsafe/internal/solver"
	"mcsafe/internal/vcgen"
)

// tracedLayers are the layers every workload's traced run times, in
// the order a submission passes through them on its way to a verdict:
// the front end a CLI check and an mcsafed request share, the five
// checker layers in core.CheckContext's order, and the verdict's wire
// encoding. Each is called from this package inside its own span.
var tracedLayers = []string{
	"policy.parse", "isa.assemble", "address.fingerprint",
	"policy.prepare", "cfg.build", "propagate.run", "annotate.run", "vcgen.prove",
	"wire.marshal",
}

// counts are the effort counts one traced check reads from what its
// layers return, by per-layer metric name. solver.cache_hits and
// vcgen.proved are reported only as ratios.
type counts map[string]int

// reportedCounts are the counts reported as metrics of their own.
var reportedCounts = []string{
	"propagate.steps", "annotate.global_conds", "annotate.local_checks",
	"vcgen.conditions", "vcgen.query_cache_hits",
	"solver.valid_queries", "solver.eliminations", "solver.dnf_blowups",
	"solver.fm_prefix_reuses", "solver.early_unsat_prunes",
	"induction.runs", "induction.iterations", "induction.candidates",
}

func (c counts) effort() effort {
	return effort{c["solver.valid_queries"], c["propagate.steps"], c["induction.runs"], c["annotate.global_conds"]}
}

// putCounts reports each count as its mean per check over cs, one
// entry per distinct program checked, and the ratios over their totals.
func putCounts(r *run, cs []counts) {
	total := counts{}
	for _, c := range cs {
		for k, v := range c {
			total[k] += v
		}
	}
	n := float64(max(1, len(cs)))
	for _, name := range reportedCounts {
		r.put(name, "count", float64(total[name])/n)
	}
	r.put("solver.cache_hit_ratio", "ratio", ratio(total["solver.cache_hits"], total["solver.valid_queries"]))
	r.put("vcgen.proved_ratio", "ratio", ratio(total["vcgen.proved"], total["vcgen.conditions"]))
	r.put("induction.iters_per_run", "ratio", ratio(total["induction.iterations"], total["induction.runs"]))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// tracedFront parses the policy, assembles the program and computes
// its content address through the public API, each in its own span:
// the steps the mcsafe CLI and mcsafed take before checking.
func tracedFront(w *obs.Worker, arch, specSrc, asm, entry string) (prog *mcsafe.Program, spec *mcsafe.Spec, fp, ph string, err error) {
	w.Begin("layer", "policy.parse")
	spec, err = mcsafe.ParseSpecArch(specSrc, arch)
	w.End()
	if err != nil {
		return nil, nil, "", "", err
	}
	w.Begin("layer", "isa.assemble")
	prog, err = mcsafe.AssembleArch(arch, asm, spec, entry)
	w.End()
	if err != nil {
		return nil, nil, "", "", err
	}
	w.Begin("layer", "address.fingerprint")
	fp, ph = prog.Fingerprint().String(), spec.Hash().String()
	w.End()
	return prog, spec, fp, ph, nil
}

// tracedResult is what one traced check returns: the verdict's wire
// form, its sorted violation codes and the effort counts.
type tracedResult struct {
	wire   mcsafe.WireResult
	codes  []string
	counts counts
}

// tracedCheck runs the five phases the way core.CheckContext does with
// default options and Phase 5 parallelism par, calling each layer's
// entry point inside its own span under one "check" span, and builds
// the Result's wire form from what they return the way core and
// Result.Wire do. A caller that opened spans ends them on an error.
func tracedCheck(ctx context.Context, w *obs.Worker, prog *isa.Program, spec *policy.Spec, par int) (tracedResult, error) {
	w.Begin("check", "program")
	t0 := time.Now()
	w.Begin("layer", "policy.prepare")
	ini, err := policy.Prepare(spec)
	w.End()
	if err != nil {
		return tracedResult{}, err
	}
	w.Begin("layer", "cfg.build")
	g, err := cfg.Build(prog, cfg.Options{TrustedFuncs: spec.TrustedNames()})
	w.End()
	if err != nil {
		return tracedResult{}, err
	}
	t1 := time.Now()
	w.Begin("layer", "propagate.run")
	prop := propagate.Run(g, ini)
	w.End()
	t2 := time.Now()
	w.Begin("layer", "annotate.run")
	ann := annotate.Run(prop)
	w.End()

	// Phase 5, with the prover core.CheckContext builds for par: the
	// sequential path's private cache, or a striped cache the pool's
	// workers share.
	t3 := time.Now()
	w.Begin("layer", "vcgen.prove")
	var prover *solver.Prover
	if par == 1 {
		prover = solver.New()
	} else {
		prover = solver.NewShared(solver.NewShardedCache())
	}
	prover.Intern = expr.NewInterner()
	eng := vcgen.New(prop, prover, vcgen.Options{Parallelism: par})
	conds, err := eng.ProveContext(ctx, ann.Conds)
	w.End()
	t4 := time.Now()
	w.End()
	if err != nil {
		return tracedResult{}, err
	}

	vs := violations(prog, g, ann, conds)
	st := mcsafe.Stats{
		Instructions: len(prog.Insns), Branches: g.BranchCount(), GlobalConds: len(ann.Conds),
		PropagationSteps: prop.Steps, ProverQueries: prover.Stats.ValidQueries, InductionRuns: eng.Stats.InductionRuns,
	}
	st.Loops, st.InnerLoops = g.LoopCounts()
	st.Calls, st.TrustedCalls = g.CallCounts()
	times := mcsafe.PhaseTimes{Typestate: t2.Sub(t1), AnnotLocal: t3.Sub(t2), Global: t4.Sub(t3), Total: t4.Sub(t0)}
	ps, es := prover.Stats, eng.Stats
	return tracedResult{
		wire:  mcsafe.NewWireResult(prog.Arch.Name(), len(vs) == 0, vs, st, times),
		codes: violationCodes(vs),
		counts: counts{
			"propagate.steps": prop.Steps, "annotate.global_conds": len(ann.Conds), "annotate.local_checks": ann.LocalChecks,
			"vcgen.conditions": es.Conditions, "vcgen.proved": es.Proved, "vcgen.query_cache_hits": es.CacheHits,
			"solver.valid_queries": ps.ValidQueries, "solver.cache_hits": ps.CacheHits, "solver.eliminations": ps.Eliminations,
			"solver.dnf_blowups": ps.DNFBlowups, "solver.fm_prefix_reuses": ps.FMPrefixReuses, "solver.early_unsat_prunes": ps.EarlyUnsatPrunes,
			"induction.runs": es.InductionRuns, "induction.iterations": es.InductionIters, "induction.candidates": es.InductionCands,
		},
	}, nil
}

// violations collects the local violations and the unproven global
// conditions in core.CheckContext's form and order.
func violations(prog *isa.Program, g *cfg.Graph, ann *annotate.Annotations, conds []vcgen.CondResult) []mcsafe.Violation {
	line := func(node int) int {
		if idx := g.Nodes[node].Index; idx >= 0 && idx < len(prog.SrcLines) {
			return prog.SrcLines[idx]
		}
		return 0
	}
	var vs []mcsafe.Violation
	for _, v := range ann.LocalViolations {
		vs = append(vs, mcsafe.Violation{
			Node: v.Node, Index: g.Nodes[v.Node].Index, Line: line(v.Node),
			Phase: "local", Code: v.Code, Desc: v.Desc, Cond: -1,
		})
	}
	for i, cr := range conds {
		if cr.Proved {
			continue
		}
		code := cr.Cond.Code
		if cr.Resource {
			code = annotate.CodeResource
		}
		vs = append(vs, mcsafe.Violation{
			Node: cr.Cond.Node, Index: g.Nodes[cr.Cond.Node].Index, Line: line(cr.Cond.Node),
			Phase: "global", Code: code, Desc: fmt.Sprintf("%s: %s", cr.Cond.Desc, cr.Detail), Cond: i,
		})
	}
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Index != vs[j].Index {
			return vs[i].Index < vs[j].Index
		}
		return vs[i].Desc < vs[j].Desc
	})
	return vs
}

// timeless encodes a wire result with its phase times cleared, the
// part two checks of one program must agree on byte for byte.
func timeless(w mcsafe.WireResult) string {
	w.Times = mcsafe.PhaseTimes{}
	b, err := w.Marshal()
	if err != nil {
		return "marshal: " + err.Error()
	}
	return string(b)
}

// eachLayer calls f with each layer span's duration and the op span
// it falls under, directly or through a check span.
func eachLayer(spans []obs.Span, f func(op *obs.Span, layer string, ns int64)) {
	ops := map[obs.SpanID]int{}
	checkOf := map[obs.SpanID]obs.SpanID{}
	for i, s := range spans {
		switch s.Kind {
		case "op":
			ops[s.ID] = i
		case "check":
			checkOf[s.ID] = s.Parent
		}
	}
	for _, s := range spans {
		if s.Kind != "layer" {
			continue
		}
		op := s.Parent
		if p, ok := checkOf[op]; ok {
			op = p
		}
		if i, ok := ops[op]; ok {
			f(&spans[i], s.Name, s.End-s.Start)
		}
	}
}
