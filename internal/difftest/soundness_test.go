package difftest

import (
	"math/rand"
	"os"
	"testing"

	"mcsafe/internal/isa"
	"mcsafe/internal/policy"
	"mcsafe/internal/progs"
	"mcsafe/internal/riscv"
)

// TestDiffInterpBaseline builds concrete worlds for every benchmark's
// policy, and for the RV32I summation in testdata, and executes the
// unmutated program in them. Checker-approved programs (WantSafe, and
// the RV32I summation) must never trap: a trap here means either the
// checker or the oracle's trap classifier is wrong. The two
// known-unsafe programs are executed too — their behaviour is logged,
// not asserted, since whether the latent violation fires depends on the
// drawn world.
func TestDiffInterpBaseline(t *testing.T) {
	run := func(name string, prog *isa.Program, spec *policy.Spec, wantSafe bool) {
		rng := rand.New(rand.NewSource(99))
		for wi := 0; wi < 4; wi++ {
			world, err := BuildWorld(spec, rng)
			if err != nil {
				t.Fatalf("%s: building world %d: %v", name, wi, err)
			}
			trap, reason := world.Exec(prog, 500000)
			switch {
			case trap != nil && wantSafe:
				t.Errorf("%s: checker-approved program trapped in world %d: %s", name, wi, trap)
			case trap != nil:
				t.Logf("%s (known unsafe): oracle observed %s in world %d", name, trap, wi)
			case reason != "exit" && reason != "steps":
				t.Logf("%s: world %d inconclusive: %s", name, wi, reason)
			}
		}
	}
	for _, b := range progs.All() {
		prog, spec, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		run(b.Name, prog, spec, b.WantSafe)
	}

	asm, err := os.ReadFile("../../testdata/rv32i_sum.s")
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile("../../testdata/rv32i_sum.spec")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := policy.Parse(string(text), riscv.Arch)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := riscv.Arch.Assemble(string(asm), isa.AsmOptions{Entry: "sum"})
	if err != nil {
		t.Fatal(err)
	}
	run("rv32i_sum", prog, spec, true)
}

// TestDiffSoundness is the end-to-end oracle: mutate the evaluation
// programs one word at a time, statically check every mutant, and
// concretely execute the ones the checker approves. A mutant that the
// checker calls safe but that traps under the conservative dynamic
// classifier is a checker soundness bug. The ordinary tier sweeps the
// fast-checking programs; MCSAFE_DIFF=full extends the sweep to all
// thirteen (minutes of checker time — the nightly CI tier).
func TestDiffSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("soundness sweep runs the full checker per mutant")
	}
	cfg := DefaultOracleConfig()
	if os.Getenv("MCSAFE_DIFF") == "full" {
		for _, b := range progs.All() {
			cfg.Programs = append(cfg.Programs, b.Name)
		}
		cfg.Mutants = 60
	}
	findings, stats, err := RunSoundness(cfg)
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	t.Logf("%d programs, %d mutants: %d rejected, %d approved, %d executions, %d inconclusive, %d checker panics",
		stats.Programs, stats.Mutants, stats.Rejected, stats.Approved,
		stats.Executions, stats.Inconclusive, stats.CheckerPanics)
	t.Logf("rejections by code: %v", stats.RejectedByCode)
	byCode := 0
	for _, n := range stats.RejectedByCode {
		byCode += n
	}
	if byCode < stats.Rejected {
		t.Errorf("rejection code tally %d < rejections %d: some rejection carried no code", byCode, stats.Rejected)
	}
	for _, f := range findings {
		t.Errorf("soundness violation: %s", f)
	}
	if stats.Mutants == 0 || stats.Rejected == 0 {
		t.Errorf("degenerate sweep: %d mutants, %d rejected", stats.Mutants, stats.Rejected)
	}
	if stats.CheckerPanics > 0 {
		t.Errorf("checker panicked on %d decodable mutants; it must reject malformed programs gracefully", stats.CheckerPanics)
	}
}
