package rtl

// Shape is an instruction's effect sequence taken apart by role. A
// lifter emits at most one effect per role, so a Shape holds the whole
// sequence, and the analyses read an instruction through it instead of
// scanning its effects. An absent role is nil (Win: 0).
//
// The register and condition-code writes are held by value and read
// through Assign and CC, so taking a sequence apart allocates nothing.
type Shape struct {
	// Ctl is the control transfer: a Branch, Call or Jump.
	Ctl Effect
	// Win is the window shift: +1 for SaveWindow, -1 for RestoreWindow.
	Win int
	// Mem is the memory access: a Load, Store or Unsupported.
	Mem Effect

	assign    Assign
	cc        SetCC
	hasAssign bool
	hasCC     bool
}

// Assign is the register write: an ALU result, a constant, a call's
// link, or a save/restore destination (Win = ±1).
func (s *Shape) Assign() *Assign {
	if !s.hasAssign {
		return nil
	}
	return &s.assign
}

// CC is the condition-code write.
func (s *Shape) CC() *SetCC {
	if !s.hasCC {
		return nil
	}
	return &s.cc
}

// ShapeOf takes an effect sequence apart by role. ok is false when two
// effects share a role, which breaks the lifters' contract.
func ShapeOf(effs []Effect) (s Shape, ok bool) {
	ok = true
	claim := func(taken bool) {
		if taken {
			ok = false
		}
	}
	for _, eff := range effs {
		switch x := eff.(type) {
		case Assign:
			claim(s.hasAssign)
			s.assign, s.hasAssign = x, true
		case SetCC:
			claim(s.hasCC)
			s.cc, s.hasCC = x, true
		case Branch, Call, Jump:
			claim(s.Ctl != nil)
			s.Ctl = eff
		case SaveWindow:
			claim(s.Win != 0)
			s.Win = +1
		case RestoreWindow:
			claim(s.Win != 0)
			s.Win = -1
		case Load, Store, Unsupported:
			claim(s.Mem != nil)
			s.Mem = eff
		}
	}
	return s, ok
}
