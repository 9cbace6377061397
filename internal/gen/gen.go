// Package gen is a seed-deterministic generator of synthetic SPARC
// programs with constructed ground truth, in the gcc -O idiom of the
// Figure 9 corpus: bounded loops over arrays, register-window call
// trees, struct walks, and pointer chases, padded with straight-line
// arithmetic. Programs are either safe by construction — every memory
// access guarded the way the checker's invariant synthesis is known to
// discharge — or carry exactly one planted, labeled violation
// (oob/align/uninit/nullptr/stack) at a known site.
//
// The corpus scales two orders of magnitude beyond the hand-ported
// paper programs (10^3–10^4 instructions) while keeping checking cost
// near-linear: the program is a binary dispatch tree over independent
// units, so every safety condition's backward slice is one unit plus a
// logarithmic dispatch prefix, never the whole program.
//
// Generation is a pure function of Config: the same Config yields a
// byte-identical Fixture on every call, on every platform — shard
// assignment, conformance manifests, and fuzz replay all rely on this.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"mcsafe/internal/isa"
	"mcsafe/internal/policy"
	"mcsafe/internal/sparc"
)

// Kind classifies a fixture's constructed ground truth: Safe, or the
// stable Violation.Code of the planted violation.
type Kind string

const (
	Safe    Kind = "safe"
	OOB     Kind = "oob"     // loop bound off by one: index reaches n
	Align   Kind = "align"   // stride-2 indexing into a word array
	Uninit  Kind = "uninit"  // arithmetic on a never-written register
	NullPtr Kind = "nullptr" // list-head dereference without a null guard
	Stack   Kind = "stack"   // save with a misaligned frame size
)

// Kinds lists every generatable kind, Safe first, in the stable order
// planting cycles through.
var Kinds = []Kind{Safe, OOB, Align, Uninit, NullPtr, Stack}

// Config selects one synthetic program.
type Config struct {
	// Seed drives every random choice. Two Configs with equal fields
	// produce byte-identical fixtures.
	Seed int64
	// Size is the target instruction count; the emitted program lands
	// within one unit (~30 instructions) of it. Values below MinSize
	// are raised to MinSize.
	Size int
	// Kind is the constructed ground truth (Safe when zero-valued).
	Kind Kind
}

// MinSize is the smallest generatable program: one dispatch leaf plus
// one unit.
const MinSize = 16

// Fixture is one generated program with its ground truth.
type Fixture struct {
	// Name is unique per Config and stable: g<seed>-<kind>-<size>.
	Name string
	Seed int64
	Size int
	Kind Kind
	// Arch names the instruction-set front-end the fixture is written
	// for. The generator emits SPARC today; the tag keeps the harness
	// ready for a future RV32I generator.
	Arch string

	// Asm is the SPARC assembly source; Spec the policy text; Entry the
	// entry label.
	Asm   string
	Spec  string
	Entry string

	// WantSafe is the ground-truth verdict. When false, WantCode is the
	// stable Violation.Code the checker must charge, and PlantUnit the
	// label of the unit holding the planted violation.
	WantSafe  bool
	WantCode  string
	PlantUnit string

	// Insns is the emitted instruction count (assembly lines, after
	// synthetic-instruction expansion it may grow by a few).
	Insns int
	// Units is the number of dispatch units emitted.
	Units int
}

// Generate emits the fixture selected by cfg. It never fails: every
// Config yields a program that assembles and decodes.
func Generate(cfg Config) *Fixture {
	if cfg.Kind == "" {
		cfg.Kind = Safe
	}
	if cfg.Size < MinSize {
		cfg.Size = MinSize
	}
	g := &generator{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed ^ 0x5e3779b97f4a7c15)),
	}
	return g.run()
}

// Build assembles the fixture and parses its specification, exactly as
// a Benchmark does.
func (f *Fixture) Build() (*isa.Program, *policy.Spec, error) {
	spec, err := policy.Parse(f.Spec, sparc.Arch)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: spec: %v", f.Name, err)
	}
	prog, err := sparc.Arch.Assemble(f.Asm, isa.AsmOptions{
		DataSyms: spec.DataSyms(),
		Entry:    f.Entry,
		Externs:  spec.TrustedNames(),
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: asm: %v", f.Name, err)
	}
	return prog, spec, nil
}

// specText is the host specification every generated program is checked
// against: a host integer array with a symbolic bound, a four-field
// host record, and a nullable linked list — the three data shapes the
// unit idioms exercise. The dispatch selector arrives in %o0.
const specText = `# generated by internal/gen — fixed host world for the synthetic corpus
struct srec { a int ; b int ; c int ; d int }
struct snode { v int ; next ptr<snode> }
region V
region H
loc e int state init region V summary
val arr int[n] state {e} region V
loc ob srec region H fields(a=init, b=init, c=init, d=init)
val op ptr<srec> state {ob} region H
loc nd snode region H summary fields(v=init, next={nd,null})
val hd ptr<snode> state {nd,null} region H
sym sel
constraint n >= 1
invoke %o0 = sel
invoke %o1 = n
invoke %o2 = arr
invoke %o3 = op
invoke %o4 = hd
allow V int rwo
allow V int[n] rfo
allow H srec.a rwo
allow H srec.b rwo
allow H srec.c rwo
allow H srec.d rwo
allow H snode.v ro
allow H snode.next rfo
allow H ptr<srec> rfo
allow H ptr<snode> rfo
`

// Spec returns the (fixed) host specification text of the generated
// corpus.
func Spec() string { return specText }

type generator struct {
	cfg   Config
	rng   *rand.Rand
	text  strings.Builder // dispatch + unit bodies (the entry procedure)
	procs strings.Builder // callee procedures, appended after the entry
	n     int             // instructions emitted across both builders
}

// avgUnit is the planning estimate of instructions per unit including
// its share of the dispatch tree. It matches the largest unit body (a
// depth-two call tree) so no unit mix overshoots the target; the final
// unit is an arithmetic filler sized to absorb the slack.
const avgUnit = 18

func (g *generator) run() *Fixture {
	size := g.cfg.Size
	k := size / avgUnit
	if k < 1 {
		k = 1
	}

	// The last unit is the size-absorbing filler, so a plant goes in one
	// of the earlier units (or unit 0 of a single-unit program). The
	// draw happens unconditionally to keep the rng stream — and with it
	// every later choice — identical across kinds of the same seed/size.
	plant := -1
	draw := 0
	if k > 1 {
		draw = g.rng.Intn(k - 1)
	}
	if g.cfg.Kind != Safe {
		plant = draw
	}

	g.text.WriteString("entry:\n")
	g.dispatch(0, k)
	plantUnit := ""
	for i := 0; i < k; i++ {
		switch {
		case i == plant:
			plantUnit = fmt.Sprintf("u%d", i)
			g.plantUnit(i, g.cfg.Kind)
		case i == k-1 && k > 1:
			g.aluFill(i, size-g.n-4, false)
		default:
			g.safeUnit(i)
		}
	}

	f := &Fixture{
		Name:      fmt.Sprintf("g%06d-%s-%d", g.cfg.Seed, g.cfg.Kind, size),
		Seed:      g.cfg.Seed,
		Size:      size,
		Kind:      g.cfg.Kind,
		Arch:      "sparc",
		Asm:       g.text.String() + g.procs.String(),
		Spec:      specText,
		Entry:     "entry",
		WantSafe:  g.cfg.Kind == Safe,
		PlantUnit: plantUnit,
		Insns:     g.n,
		Units:     k,
	}
	if !f.WantSafe {
		f.WantCode = string(g.cfg.Kind)
	}
	return f
}

// ins emits one instruction line into the entry text.
func (g *generator) ins(format string, args ...any) {
	g.text.WriteString("\t")
	fmt.Fprintf(&g.text, format, args...)
	g.text.WriteString("\n")
	g.n++
}

// pins emits one instruction line into the procedure area.
func (g *generator) pins(format string, args ...any) {
	g.procs.WriteString("\t")
	fmt.Fprintf(&g.procs, format, args...)
	g.procs.WriteString("\n")
	g.n++
}

func (g *generator) label(format string, args ...any) {
	fmt.Fprintf(&g.text, format, args...)
	g.text.WriteString(":\n")
}

func (g *generator) plabel(format string, args ...any) {
	fmt.Fprintf(&g.procs, format, args...)
	g.procs.WriteString(":\n")
}

// dispatch emits a binary decision tree routing selector %o0 in
// [lo, hi) to unit labels. Backward slices through the dispatcher are
// logarithmic in the unit count, which is what keeps whole-program
// checking near-linear. Selector values outside [0, hi) land in the
// nearest boundary unit, so the tree is total.
func (g *generator) dispatch(lo, hi int) {
	if hi-lo == 1 {
		g.ins("ba u%d", lo)
		g.ins("nop")
		return
	}
	mid := (lo + hi) / 2
	g.ins("cmp %%o0,%d", mid)
	g.ins("bl L%d_%d", lo, mid)
	g.ins("nop")
	g.dispatch(mid, hi)
	g.label("L%d_%d", lo, mid)
	g.dispatch(lo, mid)
}

// safeUnit emits one randomly chosen safe unit.
func (g *generator) safeUnit(i int) {
	switch g.rng.Intn(13) {
	case 0, 1, 2:
		g.loopRead(i, Safe)
	case 3, 4:
		g.loopWrite(i)
	case 5, 6:
		g.structWalk(i)
	case 7, 8:
		g.ptrChase(i, Safe)
	case 9, 10:
		g.callTree(i, Safe)
	default:
		g.aluFill(i, 3+g.rng.Intn(12), false)
	}
}

// plantUnit emits the unit carrying the labeled violation for kind.
func (g *generator) plantUnit(i int, kind Kind) {
	switch kind {
	case OOB, Align:
		g.loopRead(i, kind)
	case Uninit:
		g.aluFill(i, 3+g.rng.Intn(12), true)
	case NullPtr:
		g.ptrChase(i, kind)
	case Stack:
		g.callTree(i, kind)
	default:
		g.safeUnit(i)
	}
}
