// Command mcsafe checks untrusted machine code against a
// host-specified safety policy, reproducing the prototype safety checker
// of "Safety Checking of Machine Code" (Xu, Miller, Reps; PLDI 2000).
// -arch selects the instruction-set front-end ("sparc", the paper's
// subject architecture and the default, or "rv32i").
//
// Usage:
//
//	mcsafe [-arch rv32i] -spec policy.spec [-entry label] [-dump-typestate] [-dump-conds] prog.s
//	mcsafe -spec policy.spec prog1.s prog2.s ...  # batch-check concurrently
//	mcsafe -list                       # list the built-in Figure 9 programs
//	mcsafe -prog Sum [-dump-typestate] # check a built-in program
//
// -parallel N sets the worker count for global verification (0 =
// GOMAXPROCS, 1 = one worker on the calling goroutine); with several
// program files it also bounds the number of programs checked
// concurrently.
//
// Observability:
//
//	-json     emit the result as JSON (machine-readable violation codes)
//	-trace    record phase/condition/solver spans and counters; with
//	          -json the trace event stream is embedded in the output,
//	          otherwise a Prometheus-style text snapshot follows the report
//	-explain  print the verdict path of every violation: the proof
//	          strategies tried, their formulas, and the WLP each reduced to
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mcsafe"
	"mcsafe/internal/obs"
	"mcsafe/internal/progs"
)

// jsonReport is the -json output envelope. The verdict itself is the
// versioned Result wire encoding (mcsafe.WireResult, "result") — the
// same bytes a verdict-store record and an mcsafed response carry — with
// the submission's content addresses alongside. The envelope evolves
// additively: fields are only ever added.
type jsonReport struct {
	Program     string          `json:"program,omitempty"`
	Fingerprint string          `json:"fingerprint,omitempty"`
	Policy      string          `json:"policy,omitempty"`
	Checker     string          `json:"checker"`
	Result      json.RawMessage `json:"result"`
	Trace       *obs.Snapshot   `json:"trace,omitempty"`
}

func emitJSON(name string, prog *mcsafe.Program, spec *mcsafe.Spec, res *mcsafe.Result, tr *mcsafe.Trace) {
	wire, err := res.MarshalWire()
	if err != nil {
		fatal(err)
	}
	rep := jsonReport{
		Program:     name,
		Fingerprint: prog.Fingerprint().String(),
		Policy:      spec.Hash().String(),
		Checker:     mcsafe.CheckerVersion,
		Result:      json.RawMessage(wire),
	}
	if tr != nil {
		snap := tr.Snapshot()
		rep.Trace = &snap
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
}

func main() {
	specPath := flag.String("spec", "", "path to the policy/specification file")
	entry := flag.String("entry", "", "entry label (default: first instruction)")
	builtin := flag.String("prog", "", "check a built-in Figure 9 program by name")
	list := flag.Bool("list", false, "list the built-in Figure 9 programs")
	dumpTS := flag.Bool("dump-typestate", false, "print per-instruction typestates (Figure 6 style)")
	dumpConds := flag.Bool("dump-conds", false, "print every global safety condition and its verdict")
	dumpAsm := flag.Bool("dump-asm", false, "print the decoded program")
	parallel := flag.Int("parallel", 0, "global-verification workers: 0 = GOMAXPROCS, 1 = one worker on the calling goroutine")
	jsonOut := flag.Bool("json", false, "emit the result as JSON")
	trace := flag.Bool("trace", false, "record spans and counters (see -json)")
	explain := flag.Bool("explain", false, "print the verdict path of every violation")
	deadline := flag.Duration("deadline", 0, "wall-clock bound per check (0 = none); exceeding it degrades unproven conditions to 'resource' violations")
	budget := flag.Int64("budget", 0, "solver step budget per check (0 = unlimited); exhaustion degrades to 'resource' violations")
	condTimeout := flag.Duration("cond-timeout", 0, "wall-clock bound per condition proof (0 = none)")
	arch := flag.String("arch", mcsafe.DefaultArch,
		fmt.Sprintf("instruction-set architecture of the checked code (%s)", strings.Join(mcsafe.Arches(), ", ")))
	flag.Parse()

	bud := mcsafe.Budget{Deadline: *deadline, SolverSteps: *budget, CondTimeout: *condTimeout}

	if *list {
		for _, b := range progs.Sorted() {
			safe := "safe"
			if !b.WantSafe {
				safe = "UNSAFE"
			}
			fmt.Printf("%-15s %-7s %s\n", b.Name, safe, b.Descr)
		}
		return
	}

	var tr *mcsafe.Trace
	if *trace {
		tr = mcsafe.NewTrace()
	}

	switch {
	case *builtin != "":
		b := progs.Get(*builtin)
		if b == nil {
			fatal(fmt.Errorf("unknown built-in program %q (use -list)", *builtin))
		}
		spec, perr := mcsafe.ParseSpec(b.Spec)
		if perr != nil {
			fatal(perr)
		}
		prog, aerr := mcsafe.Assemble(b.Source, spec, b.Entry)
		if aerr != nil {
			fatal(aerr)
		}
		if *dumpAsm {
			fmt.Print(prog.Disassemble())
		}
		checker := mcsafe.New(
			mcsafe.WithParallelism(*parallel),
			mcsafe.WithObserver(tr),
			mcsafe.WithBudget(bud),
		)
		res, cerr := checker.Check(context.Background(), prog, spec)
		if cerr != nil {
			fatal(cerr)
		}
		if *jsonOut {
			emitJSON(b.Name, prog, spec, res, tr)
		} else {
			if *dumpTS {
				fmt.Print(res.DumpTypestate())
			}
			if *dumpConds {
				fmt.Print(res.Conditions())
			}
			printResult(res, *explain)
			if tr != nil {
				if err := tr.WriteText(os.Stdout); err != nil {
					fatal(err)
				}
			}
		}
		if !res.Safe {
			os.Exit(1)
		}

	default:
		if *specPath == "" || flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: mcsafe -spec policy.spec [-entry label] prog.s [prog2.s ...]")
			os.Exit(2)
		}
		specText, rerr := os.ReadFile(*specPath)
		if rerr != nil {
			fatal(rerr)
		}
		spec, perr := mcsafe.ParseSpecArch(string(specText), *arch)
		if perr != nil {
			fatal(perr)
		}
		checker := mcsafe.New(
			mcsafe.WithParallelism(*parallel),
			mcsafe.WithObserver(tr),
			mcsafe.WithBudget(bud),
		)
		if flag.NArg() == 1 {
			prog, res, err := checkOne(checker, spec, *arch, flag.Arg(0), *entry, *dumpAsm)
			if err != nil {
				fatal(err)
			}
			if *jsonOut {
				emitJSON(flag.Arg(0), prog, spec, res, tr)
			} else {
				if *dumpTS {
					fmt.Print(res.DumpTypestate())
				}
				if *dumpConds {
					fmt.Print(res.Conditions())
				}
				printResult(res, *explain)
				if tr != nil {
					if err := tr.WriteText(os.Stdout); err != nil {
						fatal(err)
					}
				}
			}
			if !res.Safe {
				os.Exit(1)
			}
			return
		}
		// Several programs against one policy: assemble all, then check
		// them concurrently through the batch API.
		items := make([]mcsafe.BatchItem, flag.NArg())
		for i, path := range flag.Args() {
			asmText, rerr := os.ReadFile(path)
			if rerr != nil {
				fatal(rerr)
			}
			prog, aerr := mcsafe.AssembleArch(*arch, string(asmText), spec, *entry)
			if aerr != nil {
				fatal(fmt.Errorf("%s: %v", path, aerr))
			}
			items[i] = mcsafe.BatchItem{Prog: prog, Spec: spec}
		}
		anyBad := false
		for i, br := range checker.CheckAll(context.Background(), items, *parallel) {
			path := flag.Arg(i)
			switch {
			case br.Err != nil:
				fmt.Printf("%s: ERROR: %v\n", path, br.Err)
				anyBad = true
			case br.Result.Safe:
				fmt.Printf("%s: safe (%d conditions, %v)\n",
					path, br.Result.Stats.GlobalConds, br.Result.Times.Total)
			default:
				fmt.Printf("%s: UNSAFE (%d violations, %v)\n",
					path, len(br.Result.Violations), br.Result.Times.Total)
				for _, v := range br.Result.Violations {
					fmt.Println("   ", v)
				}
				if *explain {
					for _, v := range br.Result.Violations {
						fmt.Print(br.Result.Explain(v))
					}
				}
				anyBad = true
			}
		}
		if tr != nil && !*jsonOut {
			if err := tr.WriteText(os.Stdout); err != nil {
				fatal(err)
			}
		}
		if anyBad {
			os.Exit(1)
		}
	}
}

func checkOne(checker *mcsafe.Checker, spec *mcsafe.Spec, arch, path, entry string, dumpAsm bool) (*mcsafe.Program, *mcsafe.Result, error) {
	asmText, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	prog, err := mcsafe.AssembleArch(arch, string(asmText), spec, entry)
	if err != nil {
		return nil, nil, err
	}
	if dumpAsm {
		fmt.Print(prog.Disassemble())
	}
	res, err := checker.Check(context.Background(), prog, spec)
	return prog, res, err
}

func printResult(res *mcsafe.Result, explain bool) {
	st := res.Stats
	fmt.Printf("instructions=%d branches=%d loops=%d(%d inner) calls=%d global-conditions=%d\n",
		st.Instructions, st.Branches, st.Loops, st.InnerLoops, st.Calls, st.GlobalConds)
	fmt.Printf("times: typestate=%v annot+local=%v global=%v total=%v\n",
		res.Times.Typestate, res.Times.AnnotLocal, res.Times.Global, res.Times.Total)
	for _, v := range res.Violations {
		fmt.Println(" ", v)
	}
	if explain {
		for _, v := range res.Violations {
			fmt.Print(res.Explain(v))
		}
	}
	if res.Safe {
		fmt.Println("VERDICT: safe")
	} else {
		fmt.Println("VERDICT: UNSAFE")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcsafe:", err)
	os.Exit(2)
}
