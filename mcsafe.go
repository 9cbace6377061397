// Package mcsafe is the public API of the machine-code safety checker: a
// reproduction of "Safety Checking of Machine Code" (Xu, Miller, Reps;
// PLDI 2000). It statically determines whether untrusted machine code is
// safe to load into a trusted host, given typestate annotations and
// linear constraints on the initial inputs and a host-specified access
// policy.
//
// The checking pipeline is ISA-portable: instruction semantics enter the
// analysis as RTL effects through an architecture front-end (see
// internal/isa), and the checker ships front-ends for SPARC ("sparc",
// the paper's subject architecture) and RISC-V RV32I ("rv32i"). The
// typical flow:
//
//	spec, err := mcsafe.ParseSpecArch(specText, "sparc")
//	prog, err := mcsafe.AssembleArch("sparc", asmText, spec, "entry")
//	checker := mcsafe.New()                       // configure once, reuse
//	res, err := checker.Check(ctx, prog, spec)
//	if res.Safe { ... } else { for _, v := range res.Violations { ... } }
//
// ParseSpec, Assemble, and FromWords are the SPARC-defaulting shorthands.
// Programs may also be supplied as raw machine words plus a loader
// symbol table via FromWords/FromWordsArch — the checker itself consumes
// only the decoded binary. Programs and specs are content-addressed
// (Program.Fingerprint, Spec.Hash), results have a stable versioned wire
// encoding (Result.Wire), and cmd/mcsafed serves the whole pipeline over
// HTTP with a persistent verdict store keyed by those addresses.
package mcsafe

import (
	"fmt"

	"mcsafe/internal/core"
	"mcsafe/internal/isa"
	_ "mcsafe/internal/isa/archs" // link the SPARC and RV32I front-ends
	"mcsafe/internal/policy"
)

// DefaultArch is the architecture the un-suffixed entry points assume:
// the paper's subject architecture.
const DefaultArch = "sparc"

// Arches lists the linked architecture names, sorted ("rv32i", "sparc").
func Arches() []string { return isa.Names() }

// Spec is a parsed host specification: the host-typestate specification
// (data and control aspects), the invocation specification, and the
// safety policy (Section 2 of the paper). A Spec is parsed for one
// architecture — the invocation clause names that ISA's registers — and
// checks only programs of the same architecture.
type Spec struct {
	spec *policy.Spec
}

// ParseSpec parses the policy/specification language for the default
// (SPARC) architecture. See the README for the grammar and
// internal/progs for thirteen worked examples.
func ParseSpec(src string) (*Spec, error) {
	return ParseSpecArch(src, DefaultArch)
}

// ParseSpecArch parses the policy/specification language against the
// named architecture's register set.
func ParseSpecArch(src, arch string) (*Spec, error) {
	a, err := isa.Get(arch)
	if err != nil {
		return nil, err
	}
	s, err := policy.Parse(src, a)
	if err != nil {
		return nil, err
	}
	return &Spec{spec: s}, nil
}

// Arch returns the architecture name the spec was parsed for.
func (s *Spec) Arch() string { return s.spec.Arch.Name() }

// Program is untrusted machine code: machine words plus the side tables
// a loader supplies (symbols and data-symbol addresses), decoded by one
// architecture front-end.
type Program struct {
	prog *isa.Program
}

// Assemble builds a Program from assembly text for the default (SPARC)
// architecture. The spec supplies data-symbol addresses for address
// formation ("set sym,%reg"); it may be nil. The entry label may be
// empty (execution starts at the first instruction).
func Assemble(src string, spec *Spec, entry string) (*Program, error) {
	return AssembleArch(DefaultArch, src, spec, entry)
}

// AssembleArch builds a Program from assembly text for the named
// architecture ("sparc", "rv32i").
func AssembleArch(arch, src string, spec *Spec, entry string) (*Program, error) {
	a, err := isa.Get(arch)
	if err != nil {
		return nil, err
	}
	var dataSyms map[string]uint32
	var externs map[string]bool
	if spec != nil {
		dataSyms = spec.spec.DataSyms()
		externs = spec.spec.TrustedNames()
	}
	p, err := a.Assemble(src, isa.AsmOptions{DataSyms: dataSyms, Entry: entry, Externs: externs})
	if err != nil {
		return nil, err
	}
	return &Program{prog: p}, nil
}

// FromWords builds a Program from raw machine words for the default
// (SPARC) architecture: a base address plus optional loader tables —
// symbols maps labels to instruction indexes, dataSyms maps data-symbol
// names to virtual addresses. The caller's symbols map is copied, never
// written.
func FromWords(words []uint32, base uint32, symbols map[string]int, dataSyms map[string]uint32) (*Program, error) {
	return FromWordsArch(DefaultArch, words, base, symbols, dataSyms)
}

// FromWordsArch builds a Program from raw machine words decoded by the
// named architecture front-end.
func FromWordsArch(arch string, words []uint32, base uint32, symbols map[string]int, dataSyms map[string]uint32) (*Program, error) {
	a, err := isa.Get(arch)
	if err != nil {
		return nil, err
	}
	p, err := isa.FromWords(a, words, base, symbols, dataSyms)
	if err != nil {
		return nil, err
	}
	return &Program{prog: p}, nil
}

// Arch returns the program's architecture name.
func (p *Program) Arch() string { return p.prog.Arch.Name() }

// Words returns the program's machine words.
func (p *Program) Words() []uint32 { return p.prog.Words }

// Disassemble renders the decoded program.
func (p *Program) Disassemble() string { return p.prog.Disassemble() }

// Violation is one place where a safety condition is violated or cannot
// be proved.
type Violation = core.Violation

// Stats are the program characteristics and analysis-effort counters
// (the rows of the paper's Figure 9).
type Stats = core.Stats

// PhaseTimes are the per-phase analysis times (Figure 9's timing rows).
type PhaseTimes = core.PhaseTimes

// Result is the outcome of checking a program.
type Result struct {
	// Safe reports whether every safety condition was established.
	Safe bool
	// Violations lists the conditions that failed, with instruction
	// indexes and source lines when available.
	Violations []Violation
	Stats      Stats
	Times      PhaseTimes

	arch  string
	inner *core.Result
}

// Arch returns the architecture name of the checked program ("" on a
// result lifted from a wire record that predates the arch field).
func (r *Result) Arch() string { return r.arch }

// DumpTypestate renders the typestate-propagation results per
// instruction, in the style of the paper's Figure 6.
func (r *Result) DumpTypestate() string {
	if r.inner == nil {
		return ""
	}
	out := ""
	g := r.inner.G
	for _, node := range g.Nodes {
		if node.Replica {
			continue
		}
		in := r.inner.Prop.In[node.ID]
		if in.Top {
			continue
		}
		out += fmt.Sprintf("%4d: %-28s | %s\n", node.Index, node.Insn.String(), in.String())
	}
	return out
}

// Conditions renders the global safety conditions and their verdicts.
func (r *Result) Conditions() string {
	if r.inner == nil {
		return ""
	}
	out := ""
	for _, cr := range r.inner.Conds {
		verdict := "proved"
		if !cr.Proved {
			verdict = "VIOLATION"
		}
		idx := r.inner.G.Nodes[cr.Cond.Node].Index
		out += fmt.Sprintf("insn %4d: %-24s %s: %v\n", idx, cr.Cond.Desc, verdict, cr.Cond.F)
	}
	return out
}
