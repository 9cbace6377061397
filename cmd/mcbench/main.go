// Command mcbench regenerates Figure 9 of "Safety Checking of Machine
// Code": it runs the safety checker on the thirteen evaluation programs
// and prints the program characteristics and per-phase checking times,
// side by side with the numbers the paper reports for its 440 MHz
// Sun Ultra 10.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"mcsafe/internal/core"
	"mcsafe/internal/induction"
	"mcsafe/internal/obs"
	"mcsafe/internal/progs"
)

// jsonReport is the machine-readable form of a run, written by -json so
// successive PRs can track the performance trajectory (BENCH_*.json).
type jsonReport struct {
	GoMaxProcs  int           `json:"gomaxprocs"`
	Parallelism int           `json:"parallelism"`
	Ablation    string        `json:"ablation,omitempty"`
	Programs    []jsonProgram `json:"programs"`
}

type jsonProgram struct {
	Name         string `json:"name"`
	Safe         bool   `json:"safe"`
	ExpectedSafe bool   `json:"expected_safe"`
	Violations   int    `json:"violations"`
	Instructions int    `json:"instructions"`
	GlobalConds  int    `json:"global_conds"`
	TypestateNs  int64  `json:"typestate_ns"`
	AnnotLocalNs int64  `json:"annot_local_ns"`
	GlobalNs     int64  `json:"global_ns"`
	TotalNs      int64  `json:"total_ns"`
	Error        string `json:"error,omitempty"`
	// Counters are the observer's merged effort counters (solver
	// queries, eliminations, induction iterations, ...), present only
	// with -counters: observation costs a little, so baseline timing
	// runs leave it off.
	Counters map[string]int64 `json:"counters,omitempty"`
}

func main() { os.Exit(run()) }

// run is main's body; it returns the exit code instead of calling
// os.Exit so the profile-flushing defers always execute.
func run() int {
	ablate := flag.String("ablate", "", "run an ablation: nogen (no generalization), nodnf (no DNF disjuncts), maxiter=N")
	only := flag.String("only", "", "comma-separated program names (default: all)")
	parallel := flag.Int("parallel", 0, "global-verification workers: 0 = GOMAXPROCS, 1 = one worker on the calling goroutine")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON of per-phase times instead of the table")
	baseline := flag.String("baseline", "", "compare a fresh run against a baseline JSON report (see -json); exit 1 on regression")
	threshold := flag.Float64("threshold", 2.0, "slowdown factor versus -baseline that counts as a regression")
	counters := flag.Bool("counters", false, "observe each check and report its effort counters (solver queries, FM eliminations, induction iterations, ...)")
	requireCounters := flag.String("require-counters", "", "comma-separated counter names (e.g. intern_hits,early_unsat_prunes) that must be nonzero summed over the checked programs; forces counter collection and exits 1 otherwise")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the checking runs to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (after all runs) to this file")
	storebench := flag.Bool("storebench", false, "benchmark the verdict store: cold check vs warm in-memory and post-restart disk hits")
	storeDir := flag.String("store", "", "with -storebench: store directory (default: a temp dir, removed afterwards)")
	flag.Parse()

	var gated []string
	if *requireCounters != "" {
		for _, name := range strings.Split(*requireCounters, ",") {
			gated = append(gated, strings.TrimSpace(name))
		}
		*counters = true // the gate needs the observer's counters
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcbench:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mcbench:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mcbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mcbench:", err)
			}
		}()
	}

	opts := core.Options{Parallelism: *parallel}
	switch {
	case *ablate == "nogen":
		opts.Induction = induction.Options{DisableGeneralization: true}
	case *ablate == "nodnf":
		opts.Induction = induction.Options{DisableDNF: true}
	case strings.HasPrefix(*ablate, "maxiter="):
		var n int
		fmt.Sscanf(*ablate, "maxiter=%d", &n)
		opts.Induction = induction.Options{MaxIter: n}
	case *ablate != "":
		fmt.Fprintln(os.Stderr, "unknown ablation:", *ablate)
		return 2
	}

	wanted := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(name)] = true
		}
	}

	if *storebench {
		return storeBench(*storeDir, wanted, *parallel)
	}

	if *baseline != "" {
		return compareBaseline(*baseline, *threshold, opts, wanted, gated)
	}

	if *jsonOut {
		report := collect(opts, wanted, *parallel, *ablate, *counters)
		if err := validateReport(report); err != nil {
			fmt.Fprintln(os.Stderr, "mcbench: refusing to write inconsistent baseline:", err)
			return 1
		}
		if counterGate(gated, sumCounters(report.Programs)) > 0 {
			return 1
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "mcbench:", err)
			return 1
		}
		return 0
	}

	gateTotals := map[string]int64{}

	fmt.Println("Figure 9: characteristics of the examples and performance results")
	fmt.Println("(paper numbers in parentheses; paper times from a 440 MHz Sun Ultra 10)")
	fmt.Println()
	fmt.Printf("%-15s %-12s %-10s %-10s %-8s %-10s %-12s %-12s %-12s %-12s %s\n",
		"Program", "Insns", "Branches", "Loops", "Calls", "GlobConds",
		"Typestate", "Annot+Local", "Global", "Total", "Verdict")

	for _, b := range progs.All() {
		if len(wanted) > 0 && !wanted[b.Name] {
			continue
		}
		bopts := opts
		if *counters {
			bopts.Obs = obs.New()
		}
		res, err := b.Check(bopts)
		if err != nil {
			fmt.Printf("%-15s ERROR: %v\n", b.Name, err)
			continue
		}
		st := res.Stats
		verdict := "safe"
		if !res.Safe {
			verdict = fmt.Sprintf("UNSAFE (%d violations)", len(res.Violations))
		}
		expect := "expected-safe"
		if !b.WantSafe {
			expect = "expected-unsafe"
		}
		fmt.Printf("%-15s %-12s %-10s %-10s %-8s %-10s %-12s %-12s %-12s %-12s %s [%s]\n",
			b.Name,
			fmt.Sprintf("%d(%d)", st.Instructions, b.Paper.Instructions),
			fmt.Sprintf("%d(%d)", st.Branches, b.Paper.Branches),
			fmt.Sprintf("%d/%d(%d/%d)", st.Loops, st.InnerLoops, b.Paper.Loops, b.Paper.InnerLoops),
			fmt.Sprintf("%d(%d)", st.Calls, b.Paper.Calls),
			fmt.Sprintf("%d(%d)", st.GlobalConds, b.Paper.GlobalConds),
			fmt.Sprintf("%.3fs(%.2f)", res.Times.Typestate.Seconds(), b.Paper.TypestateSec),
			fmt.Sprintf("%.3fs(%.3f)", res.Times.AnnotLocal.Seconds(), b.Paper.AnnotLocalSec),
			fmt.Sprintf("%.3fs(%.2f)", res.Times.Global.Seconds(), b.Paper.GlobalSec),
			fmt.Sprintf("%.3fs(%.2f)", res.Times.Total.Seconds(), b.Paper.TotalSec),
			verdict, expect)
		if *counters {
			c := bopts.Obs.Counters()
			printCounters(c)
			for k, v := range c {
				gateTotals[k] += v
			}
		}
	}
	if counterGate(gated, gateTotals) > 0 {
		return 1
	}
	return 0
}

// sumCounters totals each effort counter across the report rows.
func sumCounters(programs []jsonProgram) map[string]int64 {
	totals := map[string]int64{}
	for _, p := range programs {
		for k, v := range p.Counters {
			totals[k] += v
		}
	}
	return totals
}

// counterGate enforces -require-counters: each named counter must be
// nonzero summed across the checked programs. A zero total means an
// optimization (formula interning, early-unsat pruning, ...) silently
// stopped engaging, which pure timing thresholds — noisy, and generous
// by design — would miss. Returns the number of failed counters.
func counterGate(names []string, totals map[string]int64) int {
	failures := 0
	for _, name := range names {
		if totals[name] == 0 {
			failures++
			fmt.Fprintf(os.Stderr, "mcbench: required counter %q is zero across the checked programs\n", name)
		} else {
			fmt.Printf("counter-gate ok: %-24s %d\n", name, totals[name])
		}
	}
	return failures
}

// validateReport sanity-checks a report before it can be stored as a
// baseline: each program's phase times must sum to no more than its
// total (a violated invariant means the row was hand-edited or garbled,
// and ratio checks against it would be meaningless).
func validateReport(r jsonReport) error {
	for _, p := range r.Programs {
		if p.Error != "" {
			continue
		}
		if sum := p.TypestateNs + p.AnnotLocalNs + p.GlobalNs; sum > p.TotalNs {
			return fmt.Errorf("%s: phase times sum to %dns > total %dns", p.Name, sum, p.TotalNs)
		}
	}
	return nil
}

// printCounters renders one program's effort counters, sorted by name.
func printCounters(c map[string]int64) {
	names := make([]string, 0, len(c))
	for k := range c {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("    %-28s %d\n", k, c[k])
	}
}

// collect runs the selected benchmarks and gathers the JSON report rows.
func collect(opts core.Options, wanted map[string]bool, parallel int, ablate string, counters bool) jsonReport {
	report := jsonReport{
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Parallelism: parallel,
		Ablation:    ablate,
	}
	for _, b := range progs.All() {
		if len(wanted) > 0 && !wanted[b.Name] {
			continue
		}
		row := jsonProgram{Name: b.Name, ExpectedSafe: b.WantSafe}
		bopts := opts
		if counters {
			bopts.Obs = obs.New()
		}
		res, err := b.Check(bopts)
		if err != nil {
			row.Error = err.Error()
		} else {
			if counters {
				row.Counters = bopts.Obs.Counters()
			}
			row.Safe = res.Safe
			row.Violations = len(res.Violations)
			row.Instructions = res.Stats.Instructions
			row.GlobalConds = res.Stats.GlobalConds
			row.TypestateNs = res.Times.Typestate.Nanoseconds()
			row.AnnotLocalNs = res.Times.AnnotLocal.Nanoseconds()
			row.GlobalNs = res.Times.Global.Nanoseconds()
			row.TotalNs = res.Times.Total.Nanoseconds()
		}
		report.Programs = append(report.Programs, row)
	}
	return report
}

// regressionFloorNs keeps timing noise on sub-50ms programs from
// tripping the ratio check: a program regresses only when it exceeds
// both threshold x baseline and threshold x floor.
const regressionFloorNs = 50_000_000

// compareBaseline reruns the benchmarks and diffs them against a stored
// -json report. A run whose GOMAXPROCS or -parallel differs from the
// baseline's is refused (exit 2) before any check runs: its times are
// not comparable. Verdict changes and errors always fail; timing fails
// only on gross slowdowns (the threshold is deliberately generous, CI
// machines differ from the one that wrote the baseline). When gated
// counters are given, the rerun also collects effort counters and fails
// if any gated counter sums to zero. Returns the process exit code.
func compareBaseline(path string, threshold float64, opts core.Options, wanted map[string]bool, gated []string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		return 2
	}
	var base jsonReport
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "mcbench: %s: %v\n", path, err)
		return 2
	}
	if procs := runtime.GOMAXPROCS(0); base.GoMaxProcs != procs || base.Parallelism != opts.Parallelism {
		fmt.Fprintf(os.Stderr, "mcbench: %s was recorded at GOMAXPROCS %d and -parallel %d, this run has %d and %d; rerun with the baseline's settings\n",
			path, base.GoMaxProcs, base.Parallelism, procs, opts.Parallelism)
		return 2
	}
	baseByName := make(map[string]jsonProgram, len(base.Programs))
	for _, p := range base.Programs {
		baseByName[p.Name] = p
	}

	cur := collect(opts, wanted, opts.Parallelism, "", len(gated) > 0)
	failures := counterGate(gated, sumCounters(cur.Programs))
	for _, p := range cur.Programs {
		b, ok := baseByName[p.Name]
		if !ok {
			fmt.Printf("new  %-15s total=%.3fs (no baseline entry)\n", p.Name, float64(p.TotalNs)/1e9)
			continue
		}
		switch {
		case p.Error != "":
			failures++
			fmt.Printf("FAIL %-15s error: %s\n", p.Name, p.Error)
		case p.Safe != b.Safe:
			failures++
			fmt.Printf("FAIL %-15s verdict changed: safe=%v, baseline safe=%v\n", p.Name, p.Safe, b.Safe)
		case p.Safe != p.ExpectedSafe:
			failures++
			fmt.Printf("FAIL %-15s verdict differs from expectation: safe=%v, want %v\n", p.Name, p.Safe, p.ExpectedSafe)
		case float64(p.TotalNs) > threshold*float64(b.TotalNs) && float64(p.TotalNs) > threshold*regressionFloorNs:
			failures++
			fmt.Printf("FAIL %-15s total %.3fs vs baseline %.3fs (> %.1fx)\n",
				p.Name, float64(p.TotalNs)/1e9, float64(b.TotalNs)/1e9, threshold)
		default:
			fmt.Printf("ok   %-15s total %.3fs vs baseline %.3fs\n",
				p.Name, float64(p.TotalNs)/1e9, float64(b.TotalNs)/1e9)
		}
	}
	if failures > 0 {
		fmt.Printf("%d regressions against %s\n", failures, path)
		return 1
	}
	fmt.Printf("no regressions against %s\n", path)
	return 0
}
