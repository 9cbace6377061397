package difftest

import (
	"fmt"
	"math/rand"

	"mcsafe/internal/core"
	"mcsafe/internal/gen"
)

// The generated-program arm of the soundness oracle: where the mutant
// sweep perturbs the 13 hand-ported programs one word at a time, this
// arm draws whole programs from internal/gen — with constructed ground
// truth — and holds the checker to both sides of it. A safe fixture the
// checker rejects is a completeness regression; a planted fixture it
// approves is a soundness hole; and every checker-approved fixture must
// run trap-free in random concrete worlds, closing the loop against the
// interpreter exactly as the mutant arm does.

// GenOracleConfig parameterizes one generated-program sweep.
type GenOracleConfig struct {
	Seed     int64
	Programs int // fixtures to generate (kinds cycle, sizes vary)
	MaxSize  int // upper bound of the size band (≥ gen.MinSize)
	Worlds   int // concrete environments per checker-safe fixture
	MaxSteps int // interpreter step budget per run
}

// DefaultGenOracleConfig sizes the sweep for an interactive run.
func DefaultGenOracleConfig() GenOracleConfig {
	return GenOracleConfig{Seed: 1, Programs: 60, MaxSize: 300, Worlds: 2, MaxSteps: 200000}
}

// GenOracleStats summarizes one sweep.
type GenOracleStats struct {
	Programs     int
	Instructions int
	Safe         int // checker-safe fixtures (all executed)
	Unsafe       int
	Executions   int
}

// CheckGenFixture generates the fixture for cfg and holds the checker
// to its constructed ground truth; checker-safe fixtures are then
// executed in `worlds` concrete environments drawn from r, where any
// trap is a soundness counterexample. It also re-generates the fixture
// and fails on any byte difference, guarding the determinism contract
// everything downstream (shards, manifests, replay) rests on. The
// returned executions count is the number of concrete runs performed.
func CheckGenFixture(cfg gen.Config, worlds, maxSteps int, r *rand.Rand) (int, error) {
	f := gen.Generate(cfg)
	if again := gen.Generate(cfg); *again != *f {
		return 0, fmt.Errorf("%s: generation is not deterministic", f.Name)
	}
	prog, spec, err := f.Build()
	if err != nil {
		return 0, err
	}
	res, err := core.Check(prog, spec, core.Options{})
	if err != nil {
		return 0, fmt.Errorf("%s: check: %w", f.Name, err)
	}
	if f.WantSafe && !res.Safe {
		return 0, fmt.Errorf("%s: constructed safe, checker reports %v", f.Name, res.Violations[0])
	}
	if !f.WantSafe {
		for _, v := range res.Violations {
			if v.Code == f.WantCode {
				return 0, nil // planted violation found; never execute
			}
		}
		if res.Safe {
			return 0, fmt.Errorf("%s: planted %s in %s, checker reports safe", f.Name, f.WantCode, f.PlantUnit)
		}
		return 0, fmt.Errorf("%s: planted %s in %s, checker reports %v", f.Name, f.WantCode, f.PlantUnit, res.Violations)
	}
	// Checker-approved: the static verdict must survive concrete
	// execution in any world the specification admits.
	execs := 0
	for w := 0; w < worlds; w++ {
		world, err := BuildWorld(spec, r)
		if err != nil {
			return execs, fmt.Errorf("%s: world %d: %w", f.Name, w, err)
		}
		execs++
		if trap, _ := world.Exec(prog, maxSteps); trap != nil {
			return execs, fmt.Errorf("%s: SOUNDNESS: checker-approved fixture trapped in world %d: %s [%s]",
				f.Name, w, trap, TrapCode(trap.Kind))
		}
	}
	return execs, nil
}

// RunGenOracle sweeps cfg.Programs generated fixtures, cycling kinds
// and walking the size band deterministically from cfg.Seed.
func RunGenOracle(cfg GenOracleConfig) (GenOracleStats, error) {
	var stats GenOracleStats
	if cfg.MaxSize < gen.MinSize {
		cfg.MaxSize = gen.MinSize
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	band := cfg.MaxSize - gen.MinSize + 1
	for i := 0; i < cfg.Programs; i++ {
		gc := gen.Config{
			Seed: cfg.Seed + int64(i),
			Size: gen.MinSize + (i*37)%band,
			Kind: gen.Kinds[i%len(gen.Kinds)],
		}
		f := gen.Generate(gc)
		stats.Programs++
		stats.Instructions += f.Insns
		if f.WantSafe {
			stats.Safe++
		} else {
			stats.Unsafe++
		}
		execs, err := CheckGenFixture(gc, cfg.Worlds, cfg.MaxSteps, r)
		stats.Executions += execs
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}
