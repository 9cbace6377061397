// Command mcfuzz runs the differential correctness campaigns of
// internal/difftest outside the go-fuzz engine: deterministic,
// seed-replayable sweeps sized for a CI budget or an overnight soak.
//
//	mcfuzz -mode all -n 20000 -seed 7
//	mcfuzz -mode soundness -progs all -mutants 80 -worlds 4
//
// Modes:
//
//	encode     random canonical instructions and arbitrary words through
//	           the encoder/decoder round-trip laws
//	solver     random box-bounded systems, implications, and quantified
//	           formulas differentially against exhaustive enumeration
//	soundness  mutate the evaluation programs, check every mutant, and
//	           concretely execute the checker-approved ones
//	gen        sweep whole generated programs (internal/gen) against
//	           their constructed ground truth, and concretely execute
//	           every checker-approved one
//	all        every campaign (soundness and gen sized down to stay
//	           interactive)
//
// The exit status is 1 when any campaign finds a counterexample, making
// the command directly usable as a CI gate.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"mcsafe/internal/difftest"
	"mcsafe/internal/progs"
	"mcsafe/internal/solver"
)

func main() {
	var (
		mode    = flag.String("mode", "all", "campaign: encode, solver, soundness, gen, or all")
		n       = flag.Int("n", 10000, "iterations for the encode and solver campaigns")
		seed    = flag.Int64("seed", 1, "PRNG seed (campaigns are deterministic given a seed)")
		progSet = flag.String("progs", "", "soundness programs: comma-separated names, \"all\", or empty for the fast set")
		mutants = flag.Int("mutants", 40, "mutants per program in the soundness campaign")
		worlds  = flag.Int("worlds", 3, "concrete environments per checker-approved mutant")
		inputTO = flag.Duration("input-timeout", 10*time.Minute, "per-mutant check watchdog in the soundness campaign (0 = none)")
		genN    = flag.Int("gen-n", 120, "generated programs in the gen campaign")
		genSize = flag.Int("gen-size", 400, "size-band upper bound (instructions) in the gen campaign")
	)
	flag.Parse()
	mutantsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "mutants" {
			mutantsSet = true
		}
	})

	failed := false
	run := func(name string, f func() error) {
		start := time.Now()
		err := f()
		if err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "FAIL %-10s %v\n", name, err)
			return
		}
		fmt.Printf("ok   %-10s %v\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *mode == "encode" || *mode == "all" {
		run("encode", func() error { return encodeCampaign(*seed, *n) })
	}
	if *mode == "solver" || *mode == "all" {
		run("solver", func() error { return solverCampaign(*seed, *n) })
	}
	if *mode == "soundness" || *mode == "all" {
		m := *mutants
		if *mode == "all" && !mutantsSet {
			m = 15 // keep -mode all interactive
		}
		run("soundness", func() error { return soundnessCampaign(*seed, *progSet, m, *worlds, *inputTO) })
	}
	if *mode == "gen" || *mode == "all" {
		n := *genN
		if *mode == "all" {
			n = min(n, 40) // keep -mode all interactive
		}
		run("gen", func() error { return genCampaign(*seed, n, *genSize, *worlds) })
	}
	if failed {
		os.Exit(1)
	}
}

func genCampaign(seed int64, n, maxSize, worlds int) error {
	stats, err := difftest.RunGenOracle(difftest.GenOracleConfig{
		Seed: seed, Programs: n, MaxSize: maxSize, Worlds: worlds, MaxSteps: 200000,
	})
	fmt.Printf("     gen: %d programs (%d instructions), %d safe, %d planted, %d executions\n",
		stats.Programs, stats.Instructions, stats.Safe, stats.Unsafe, stats.Executions)
	return err
}

func encodeCampaign(seed int64, n int) error {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if err := difftest.CheckInsnRoundTrip(difftest.GenInsn(r)); err != nil {
			return fmt.Errorf("iteration %d (seed %d): %v", i, seed, err)
		}
		if err := difftest.CheckWordRoundTrip(r.Uint32()); err != nil {
			return fmt.Errorf("iteration %d (seed %d): %v", i, seed, err)
		}
	}
	for _, b := range progs.Sorted() {
		prog, _, err := b.Build()
		if err != nil {
			return err
		}
		if err := difftest.CheckProgramRoundTrip(prog); err != nil {
			return fmt.Errorf("%s: %v", b.Name, err)
		}
	}
	return nil
}

func solverCampaign(seed int64, n int) error {
	r := rand.New(rand.NewSource(seed))
	p := solver.New()
	for i := 0; i < n; i++ {
		if err := difftest.CheckSystem(p, difftest.GenSystem(r)); err != nil {
			return fmt.Errorf("system %d (seed %d): %v", i, seed, err)
		}
	}
	// Implications and quantified formulas are pricier; run a tenth each.
	for i := 0; i < n/10; i++ {
		hyp, goal, vars, dom := difftest.GenImplication(r)
		if _, err := difftest.CheckImplication(p, hyp, goal, vars, dom); err != nil {
			return fmt.Errorf("implication %d (seed %d): %v", i, seed, err)
		}
	}
	for i := 0; i < n/20; i++ {
		f, vars, dom := difftest.GenQuantified(r)
		if _, _, err := difftest.CheckQuantified(p, f, vars, dom); err != nil {
			return fmt.Errorf("quantified %d (seed %d): %v", i, seed, err)
		}
	}
	return nil
}

func soundnessCampaign(seed int64, progSet string, mutants, worlds int, inputTimeout time.Duration) error {
	cfg := difftest.OracleConfig{
		Seed: seed, Mutants: mutants, Worlds: worlds, MaxSteps: 200000,
		InputTimeout: inputTimeout,
	}
	switch progSet {
	case "":
		// fast set (the OracleConfig default)
	case "all":
		cfg.Programs = progs.Names()
	default:
		cfg.Programs = strings.Split(progSet, ",")
	}
	findings, stats, err := difftest.RunSoundness(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("     soundness: %d programs, %d mutants, %d rejected, %d approved, %d executions, %d checker panics, %d hangs\n",
		stats.Programs, stats.Mutants, stats.Rejected, stats.Approved, stats.Executions, stats.CheckerPanics, stats.Hangs)
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "     %s\n", f)
		}
		return fmt.Errorf("%d soundness violations", len(findings))
	}
	if stats.CheckerPanics > 0 {
		return fmt.Errorf("checker panicked on %d mutants", stats.CheckerPanics)
	}
	if stats.Hangs > 0 {
		return fmt.Errorf("checker hung past the watchdog on %d mutants", stats.Hangs)
	}
	return nil
}
