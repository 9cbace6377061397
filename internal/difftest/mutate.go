package difftest

import (
	"fmt"
	"math/rand"

	"mcsafe/internal/isa"
	"mcsafe/internal/sparc"
)

// A Mutant is one single-word perturbation of a program.
type Mutant struct {
	Index int    // instruction index of the mutated word
	Word  uint32 // replacement word
	Desc  string // human-readable description of the tweak
}

// Apply returns a copy of p with the mutant's word replaced and lowered
// through p.Arch. The symbol table, procedure map, entry point and
// source map are shared: a single-word mutant leaves program structure
// intact, which is exactly what both the checker and the interpreter's
// external-call resolution assume.
func (m Mutant) Apply(p *isa.Program) (*isa.Program, error) {
	insn, err := p.Arch.Lower(m.Word)
	if err != nil {
		return nil, err
	}
	q := *p
	q.Words = append([]uint32(nil), p.Words...)
	q.Insns = append([]isa.Insn(nil), p.Insns...)
	q.Words[m.Index] = m.Word
	q.Insns[m.Index] = insn
	return &q, nil
}

// flipBits are the fixed bit positions flipped in every instruction
// word: immediate low bits (offset/alignment), register fields, the
// i-bit, the op3 low bit, a cond bit, and the annul bit.
var flipBits = []uint{0, 1, 2, 5, 13, 14, 19, 25, 29}

// Mutants derives up to max single-instruction mutants of p,
// deterministically from r. Two families are generated: raw bit flips,
// and field-level tweaks (immediate nudges, opcode swaps within a
// format, branch-displacement and condition changes, register bumps)
// applied to the decoded instruction and re-encoded. Mutants that no
// longer decode are dropped here — an undecodable word never reaches
// the checker or the interpreter, both of which consume decoded
// programs.
func Mutants(p *isa.Program, r *rand.Rand, max int) []Mutant {
	var out []Mutant
	seen := make(map[[2]uint32]bool)
	add := func(idx int, w uint32, desc string) {
		if w == p.Words[idx] || seen[[2]uint32{uint32(idx), w}] {
			return
		}
		if _, err := sparc.Decode(w); err != nil {
			return
		}
		seen[[2]uint32{uint32(idx), w}] = true
		out = append(out, Mutant{Index: idx, Word: w, Desc: desc})
	}
	addInsn := func(idx int, i sparc.Insn, desc string) {
		if w, err := sparc.Encode(i); err == nil {
			add(idx, w, desc)
		}
	}

	for idx, word := range p.Words {
		for _, b := range flipBits {
			add(idx, word^(1<<b), fmt.Sprintf("flip bit %d", b))
		}
		d, err := sparc.Decode(word)
		if err != nil {
			continue
		}
		switch {
		case d.Op == sparc.OpCall:
			for _, dd := range []int32{-1, 1, 2} {
				m := d
				m.Disp += dd
				addInsn(idx, m, fmt.Sprintf("call disp %+d", dd))
			}
		case d.Op == sparc.OpBranch:
			for _, dd := range []int32{-1, 1, 2} {
				m := d
				m.Disp += dd
				addInsn(idx, m, fmt.Sprintf("branch disp %+d", dd))
			}
			inv := d
			inv.Cond = d.Cond ^ 8 // SPARC: cond^8 is the logical inverse
			addInsn(idx, inv, "invert cond")
			always := d
			always.Cond = sparc.CondA
			addInsn(idx, always, "cond -> always")
			ann := d
			ann.Annul = !d.Annul
			addInsn(idx, ann, "toggle annul")
		case d.Op == sparc.OpSethi:
			m := d
			m.SImm ^= 1 << 10
			addInsn(idx, m, "sethi imm bit 10")
		case d.IsLoad() || d.IsStore():
			if d.Imm {
				for _, dd := range []int32{-4, -1, 1, 4} {
					m := d
					m.SImm += dd
					addInsn(idx, m, fmt.Sprintf("mem offset %+d", dd))
				}
			}
			for _, op := range memSwaps(d.Op) {
				m := d
				m.Op = op
				addInsn(idx, m, fmt.Sprintf("op %d -> %d", d.Op, op))
			}
			m := d
			m.Rs1 = (d.Rs1 + 1) % 32
			addInsn(idx, m, "bump rs1")
		default: // format-3 arithmetic
			if d.Imm {
				for _, dd := range []int32{-4, -1, 1, 4} {
					m := d
					m.SImm += dd
					addInsn(idx, m, fmt.Sprintf("imm %+d", dd))
				}
				z := d
				z.SImm = 0
				addInsn(idx, z, "imm -> 0")
			}
			for _, op := range arithSwaps(d.Op) {
				m := d
				m.Op = op
				addInsn(idx, m, fmt.Sprintf("op %d -> %d", d.Op, op))
			}
			m := d
			m.Rd = (d.Rd + 1) % 32
			addInsn(idx, m, "bump rd")
		}
	}

	// Deterministic subsample: shuffle, truncate.
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// memSwaps returns same-direction memory ops of a different size, the
// mutations most likely to break alignment or bounds reasoning.
func memSwaps(op sparc.Op) []sparc.Op {
	switch op {
	case sparc.OpLd:
		return []sparc.Op{sparc.OpLdub, sparc.OpLduh}
	case sparc.OpLdub, sparc.OpLdsb:
		return []sparc.Op{sparc.OpLd, sparc.OpLduh}
	case sparc.OpLduh, sparc.OpLdsh:
		return []sparc.Op{sparc.OpLd, sparc.OpLdub}
	case sparc.OpSt:
		return []sparc.Op{sparc.OpStb, sparc.OpSth}
	case sparc.OpStb:
		return []sparc.Op{sparc.OpSt, sparc.OpSth}
	case sparc.OpSth:
		return []sparc.Op{sparc.OpSt, sparc.OpStb}
	}
	return nil
}

// arithSwaps returns plausible same-format opcode substitutions.
func arithSwaps(op sparc.Op) []sparc.Op {
	switch op {
	case sparc.OpAdd:
		return []sparc.Op{sparc.OpSub}
	case sparc.OpSub:
		return []sparc.Op{sparc.OpAdd}
	case sparc.OpAddcc:
		return []sparc.Op{sparc.OpSubcc}
	case sparc.OpSubcc:
		return []sparc.Op{sparc.OpAddcc}
	case sparc.OpSll:
		return []sparc.Op{sparc.OpSrl, sparc.OpSra}
	case sparc.OpSrl:
		return []sparc.Op{sparc.OpSll, sparc.OpSra}
	case sparc.OpSra:
		return []sparc.Op{sparc.OpSll, sparc.OpSrl}
	case sparc.OpAnd:
		return []sparc.Op{sparc.OpOr, sparc.OpXor}
	case sparc.OpOr:
		return []sparc.Op{sparc.OpAnd}
	case sparc.OpXor:
		return []sparc.Op{sparc.OpAnd, sparc.OpOr}
	}
	return nil
}
