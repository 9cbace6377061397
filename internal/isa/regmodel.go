package isa

import (
	"fmt"

	"mcsafe/internal/expr"
	"mcsafe/internal/rtl"
)

// RegModel describes an architecture's integer register file and owns
// the naming of register variables in formulas and typestate locations.
// Naming is verdict-critical: every formula, violation description, and
// typestate key renders through it, so the scheme is frozen — the bare
// canonical name ("%o0", "%a0") for unwindowed registers or window
// depth 0, and "w<depth>.<name>" for windowed registers at depth > 0.
type RegModel struct {
	names []string
	parse map[string]rtl.Reg
	win   WindowLayout
	// varTab caches the depth-qualified variable per (depth, register):
	// these names appear in millions of interned formula terms, so they
	// are materialized once.
	varTab [][]expr.Var
}

// NewRegModel builds a register model. names lists the canonical name
// of every register in number order (index = register number); aliases
// maps accepted alternate spellings to canonical names ("%o6" → "%sp").
// A file is windowed when win.Size > 0: its windowed registers start at
// win.Out, and variables are cached to depth win.MaxDepth.
func NewRegModel(names []string, aliases map[string]string, win WindowLayout) *RegModel {
	m := &RegModel{
		names: names,
		parse: make(map[string]rtl.Reg, len(names)+len(aliases)),
		win:   win,
	}
	for i, n := range names {
		m.parse[n] = rtl.Reg(i)
	}
	for alias, canon := range aliases {
		r, ok := m.parse[canon]
		if !ok {
			panic(fmt.Sprintf("isa: alias %q names unknown register %q", alias, canon))
		}
		m.parse[alias] = r
	}
	depths := 1
	if win.Size > 0 {
		depths = win.MaxDepth + 1
	}
	m.varTab = make([][]expr.Var, depths)
	for d := range m.varTab {
		m.varTab[d] = make([]expr.Var, len(names))
		for r := range m.varTab[d] {
			if d == 0 || !m.Windowed(rtl.Reg(r)) {
				m.varTab[d][r] = expr.Var(names[r])
			} else {
				m.varTab[d][r] = expr.Var(fmt.Sprintf("w%d.%s", d, names[r]))
			}
		}
	}
	return m
}

// N is the number of registers.
func (m *RegModel) N() int { return len(m.names) }

// Name is the canonical name of register r.
func (m *RegModel) Name(r rtl.Reg) string { return m.names[r] }

// Parse resolves a register name (canonical or alias).
func (m *RegModel) Parse(name string) (rtl.Reg, bool) {
	r, ok := m.parse[name]
	return r, ok
}

// Windowed reports whether register r is part of the register window
// (renamed by save/restore); unwindowed registers — and every register
// of an unwindowed architecture — keep one name at every depth.
func (m *RegModel) Windowed(r rtl.Reg) bool {
	return m.win.Size > 0 && r >= m.win.Out
}

// Var is the formula variable for register r at window depth.
func (m *RegModel) Var(r rtl.Reg, depth int) expr.Var {
	if depth == 0 || !m.Windowed(r) {
		return m.varTab[0][r]
	}
	if depth < len(m.varTab) {
		return m.varTab[depth][r]
	}
	return expr.Var(fmt.Sprintf("w%d.%s", depth, m.names[r]))
}

// Loc is the typestate-location key for register r at window depth —
// the string form of Var.
func (m *RegModel) Loc(r rtl.Reg, depth int) string {
	return string(m.Var(r, depth))
}

// RenameToDepth rewrites the entry-window register variables of a
// policy formula ("%o0") to their variables at a window depth
// ("w2.%o0"); unwindowed registers and other variables are kept.
func (m *RegModel) RenameToDepth(f expr.Formula, depth int) expr.Formula {
	if depth == 0 {
		return f
	}
	sub := map[expr.Var]expr.LinExpr{}
	for _, v := range expr.FreeVarsOf(f) {
		if len(v) >= 2 && v[0] == '%' {
			if r, ok := m.Parse(string(v)); ok && m.Windowed(r) {
				sub[v] = expr.V(m.Var(r, depth))
			}
		}
	}
	return expr.SubstAll(f, sub)
}
