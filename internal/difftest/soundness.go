package difftest

import (
	"fmt"
	"math/rand"
	"time"

	"mcsafe/internal/core"
	"mcsafe/internal/progs"
)

// OracleConfig parameterizes one soundness-oracle sweep.
type OracleConfig struct {
	Seed     int64
	Programs []string // benchmark names; nil selects FastPrograms
	Mutants  int      // mutants per program (after dedup/subsample)
	Worlds   int      // concrete environments per checker-safe program
	MaxSteps int      // interpreter step budget per run
	// InputTimeout is the per-mutant watchdog (0 = none). Each static
	// check runs under a Budget deadline of this length, so a
	// pathological mutant degrades gracefully to a resource-coded
	// rejection; a hard backstop of twice this length catches a checker
	// that ignores its deadline entirely and charges OracleStats.Hangs.
	InputTimeout time.Duration
}

// FastPrograms are the benchmarks that check in well under 100ms each,
// the default sweep for the ordinary test tier. The remaining programs
// (Btree, HeapSort, MD5, ...) take seconds to minutes per mutant and run
// in the nightly full sweep (MCSAFE_DIFF=full).
var FastPrograms = []string{
	"Sum", "PagingPolicy", "StartTimer", "Hash", "StopTimer", "jPVM", "BubbleSort",
}

// DefaultOracleConfig returns the configuration the TestDiffSoundness
// tier uses.
func DefaultOracleConfig() OracleConfig {
	return OracleConfig{Seed: 1, Mutants: 40, Worlds: 3, MaxSteps: 200000}
}

// A Finding is one soundness counterexample: a mutant the checker
// approved that trapped under the concrete-execution oracle.
type Finding struct {
	Program string
	Mutant  Mutant
	World   int
	Trap    *Trap
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: insn %d <- 0x%08x (%s), world %d: %s [%s]",
		f.Program, f.Mutant.Index, f.Mutant.Word, f.Mutant.Desc, f.World,
		f.Trap, TrapCode(f.Trap.Kind))
}

// OracleStats summarizes one sweep.
type OracleStats struct {
	Programs      int
	Mutants       int
	Rejected      int // checker said unsafe (or failed) on the mutant
	Approved      int // checker said safe; executed in concrete worlds
	Executions    int
	Inconclusive  int // runs ending in a non-trap interpreter fault
	CheckerPanics int // core.Check panicked on a decodable mutant
	Hangs         int // checks that blew past the hard watchdog backstop
	BaselineRuns  int // executions of the unmutated WantSafe programs
	// RejectedByCode tallies rejections by the stable violation code
	// (annotate.Code* values) of the violations the checker reported, so
	// a sweep shows WHY mutants were rejected, not just how many.
	// Rejections without violations (build/check errors, panics) are
	// charged to "error".
	RejectedByCode map[string]int
}

// TrapCode maps an oracle trap kind to the checker's stable violation
// code vocabulary, letting soundness reports compare the dynamic trap
// against the static verdict class on equal terms.
func TrapCode(kind string) string {
	switch kind {
	case "oob":
		return "oob"
	case "misalign":
		return "align"
	case "perm":
		return "policy"
	default:
		return kind
	}
}

// checkSafe runs the static checker on a mutant, converting panics and
// errors into rejection. A panic is additionally counted: the checker
// should reject malformed programs gracefully, and the count lets the
// test surface robustness regressions without failing soundness. When
// the checker rejects, codes carries the stable violation codes it
// charged ("error" for rejections without a violation list).
func checkSafe(run func() (*core.Result, error)) (safe bool, panicked bool, codes []string) {
	defer func() {
		if r := recover(); r != nil {
			safe, panicked, codes = false, true, []string{"error"}
		}
	}()
	res, err := run()
	if err != nil || res == nil {
		return false, false, []string{"error"}
	}
	if res.Safe {
		return true, false, nil
	}
	seen := map[string]bool{}
	for _, v := range res.Violations {
		code := v.Code
		if code == "" {
			code = "error"
		}
		if !seen[code] {
			seen[code] = true
			codes = append(codes, code)
		}
	}
	if len(codes) == 0 {
		codes = []string{"error"}
	}
	return false, false, codes
}

// checkSafeTimed is checkSafe under the per-input watchdog. The Budget
// deadline inside run is the graceful, in-band bound; the backstop here
// (twice the timeout) exists only for a checker that ignores its
// deadline — a genuine hang. A hung check is charged as a rejection and
// its goroutine is abandoned (it cannot be killed), which the hang
// count surfaces.
func checkSafeTimed(timeout time.Duration, run func() (*core.Result, error)) (safe, panicked, hung bool, codes []string) {
	if timeout <= 0 {
		safe, panicked, codes = checkSafe(run)
		return safe, panicked, false, codes
	}
	type outcome struct {
		safe, panicked bool
		codes          []string
	}
	ch := make(chan outcome, 1)
	go func() {
		s, p, c := checkSafe(run)
		ch <- outcome{s, p, c}
	}()
	select {
	case o := <-ch:
		return o.safe, o.panicked, false, o.codes
	case <-time.After(2 * timeout):
		return false, false, true, []string{"error"}
	}
}

// RunSoundness executes one sweep: for every selected benchmark it
// first replays the unmutated program in Worlds concrete environments
// (the checker-approved originals must never trap — this validates the
// oracle itself), then derives Mutants single-word mutants, checks each,
// and concretely executes every checker-approved mutant. Any trap on an
// approved program is returned as a Finding.
func RunSoundness(cfg OracleConfig) ([]Finding, OracleStats, error) {
	names := cfg.Programs
	if names == nil {
		names = FastPrograms
	}
	var findings []Finding
	var stats OracleStats
	stats.RejectedByCode = map[string]int{}

	for _, name := range names {
		b := progs.Get(name)
		if b == nil {
			return nil, stats, fmt.Errorf("unknown benchmark %q", name)
		}
		prog, spec, err := b.Build()
		if err != nil {
			return nil, stats, err
		}
		stats.Programs++
		rng := rand.New(rand.NewSource(cfg.Seed + int64(len(name))*1000003 + int64(len(prog.Words))))

		// Oracle self-check: the original of a WantSafe program must be
		// trap-free in every world the spec admits.
		if b.WantSafe {
			for wi := 0; wi < cfg.Worlds; wi++ {
				world, err := BuildWorld(spec, rng)
				if err != nil {
					return nil, stats, fmt.Errorf("%s: building world: %v", name, err)
				}
				stats.BaselineRuns++
				if trap, _ := world.Exec(prog, cfg.MaxSteps); trap != nil {
					return nil, stats, fmt.Errorf("%s: UNMUTATED program trapped (oracle or checker bug): %s", name, trap)
				}
			}
		}

		for _, m := range Mutants(prog, rng, cfg.Mutants) {
			stats.Mutants++
			mp, err := m.Apply(prog)
			if err != nil {
				continue
			}
			safe, panicked, hung, codes := checkSafeTimed(cfg.InputTimeout, func() (*core.Result, error) {
				return core.Check(mp, spec, core.Options{
					Budget: core.Budget{Deadline: cfg.InputTimeout},
				})
			})
			if panicked {
				stats.CheckerPanics++
			}
			if hung {
				stats.Hangs++
			}
			if !safe {
				stats.Rejected++
				for _, code := range codes {
					stats.RejectedByCode[code]++
				}
				continue
			}
			stats.Approved++
			// The checker calls the mutant safe: execution in any
			// spec-conforming world must not trap.
			for wi := 0; wi < cfg.Worlds; wi++ {
				world, err := BuildWorld(spec, rng)
				if err != nil {
					return nil, stats, fmt.Errorf("%s: building world: %v", name, err)
				}
				stats.Executions++
				trap, reason := world.Exec(mp, cfg.MaxSteps)
				if trap != nil {
					findings = append(findings, Finding{Program: name, Mutant: m, World: wi, Trap: trap})
					break
				}
				if reason != "exit" && reason != "steps" {
					stats.Inconclusive++
				}
			}
		}
	}
	return findings, stats, nil
}
