// Package typestate implements the abstract storage model of Section 4.1
// of "Safety Checking of Machine Code": abstract locations, the state
// lattice of Figure 5, access permissions, typestate triples
// <type, state, access>, and abstract stores mapping abstract locations to
// typestates. All of these form meet semi-lattices.
package typestate

import (
	"fmt"
	"sort"
	"strings"

	"mcsafe/internal/types"
)

// Perm is a set of access permissions. r and w are properties of a
// location; f, x, and o are properties of the value stored in a location
// (Section 2). The typestate access component carries only f, x, o.
type Perm uint8

const (
	// PermR: the location may be read.
	PermR Perm = 1 << iota
	// PermW: the location may be written.
	PermW
	// PermF: the (pointer) value may be followed (dereferenced).
	PermF
	// PermX: the (function-pointer) value may be called.
	PermX
	// PermO: the value may be examined, copied, and operated upon.
	PermO
)

// ValuePerms masks a permission set down to the value permissions f, x, o
// that belong in a typestate.
func (p Perm) ValuePerms() Perm { return p & (PermF | PermX | PermO) }

// Has reports whether every permission in q is present in p.
func (p Perm) Has(q Perm) bool { return p&q == q }

// Meet of two access-permission sets is their intersection (Section 4.1).
func (p Perm) Meet(q Perm) Perm { return p & q }

// ParsePerm parses a permission string such as "rwfo".
func ParsePerm(s string) (Perm, error) {
	var p Perm
	for _, c := range s {
		switch c {
		case 'r':
			p |= PermR
		case 'w':
			p |= PermW
		case 'f':
			p |= PermF
		case 'x':
			p |= PermX
		case 'o':
			p |= PermO
		case '-':
		default:
			return 0, fmt.Errorf("typestate: unknown access permission %q", c)
		}
	}
	return p, nil
}

func (p Perm) String() string {
	var b strings.Builder
	for _, pc := range []struct {
		p Perm
		c byte
	}{{PermR, 'r'}, {PermW, 'w'}, {PermF, 'f'}, {PermX, 'x'}, {PermO, 'o'}} {
		if p.Has(pc.p) {
			b.WriteByte(pc.c)
		}
	}
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}

// StateKind discriminates the variants of the state lattice of Figure 5.
type StateKind uint8

const (
	// StateTop: no information yet (above everything).
	StateTop StateKind = iota
	// StateUninit: [u t] — an uninitialized value of the location's type.
	StateUninit
	// StateInit: [i t] — an initialized scalar value.
	StateInit
	// StatePointsTo: a pointer value; Set holds the abstract locations
	// possibly referenced, and MayNull records whether null is a member.
	StatePointsTo
	// StateBottom: ⊥s — an undefined value of any type.
	StateBottom
)

// Ref is one possible referent of a pointer: an abstract location plus a
// byte offset into it (offsets arise from pointer arithmetic into
// aggregates; they are 0 for pointers to scalars and array bases).
type Ref struct {
	Loc string
	Off int
}

func (r Ref) String() string {
	if r.Off == 0 {
		return r.Loc
	}
	return fmt.Sprintf("%s+%d", r.Loc, r.Off)
}

// State is an element of the state lattice of Figure 5. Kind and
// MayNull follow Set so that they share one word: on 64-bit platforms
// a Typestate, one store slot, takes 56 bytes.
type State struct {
	Set     []Ref // for StatePointsTo, sorted, deduped
	Kind    StateKind
	MayNull bool // for StatePointsTo
}

// Canonical states.
var (
	TopState    = State{Kind: StateTop}
	BottomState = State{Kind: StateBottom}
	UninitState = State{Kind: StateUninit}
	InitState   = State{Kind: StateInit}
	// NullState is the state of a pointer known to be null.
	NullState = State{Kind: StatePointsTo, MayNull: true}
)

// PointsTo builds a pointer state referencing the given locations.
func PointsTo(mayNull bool, refs ...Ref) State {
	s := State{Kind: StatePointsTo, MayNull: mayNull, Set: append([]Ref(nil), refs...)}
	s.normalize()
	return s
}

func (s *State) normalize() {
	sort.Slice(s.Set, func(i, j int) bool {
		if s.Set[i].Loc != s.Set[j].Loc {
			return s.Set[i].Loc < s.Set[j].Loc
		}
		return s.Set[i].Off < s.Set[j].Off
	})
	out := s.Set[:0]
	for i, r := range s.Set {
		if i == 0 || r != s.Set[i-1] {
			out = append(out, r)
		}
	}
	s.Set = out
}

// AddOffset returns the pointer state shifted by delta bytes (pointer
// arithmetic into an aggregate).
func (s State) AddOffset(delta int) State {
	if s.Kind != StatePointsTo {
		return s
	}
	refs := make([]Ref, len(s.Set))
	for i, r := range s.Set {
		refs[i] = Ref{Loc: r.Loc, Off: r.Off + delta}
	}
	return PointsTo(s.MayNull, refs...)
}

// Equal reports equality of states.
func (s State) Equal(o State) bool {
	if s.Kind != o.Kind {
		return false
	}
	if s.Kind != StatePointsTo {
		return true
	}
	if s.MayNull != o.MayNull || len(s.Set) != len(o.Set) {
		return false
	}
	for i := range s.Set {
		if s.Set[i] != o.Set[i] {
			return false
		}
	}
	return true
}

// Meet computes the meet in the state lattice of Figure 5. For pointer
// sets P1 and P2 the order is P1 >= P2 iff P2 ⊇ P1, so the meet of two
// pointer states is the union of their referent sets. The meet of an
// uninitialized state with anything other than itself or Top is Bottom,
// and the meet of a pointer state with a scalar state is Bottom.
func (s State) Meet(o State) State {
	switch {
	case s.Kind == StateTop:
		return o
	case o.Kind == StateTop:
		return s
	case s.Kind == StateBottom || o.Kind == StateBottom:
		return BottomState
	case s.Kind == o.Kind:
		switch s.Kind {
		case StateUninit, StateInit:
			return s
		case StatePointsTo:
			return PointsTo(s.MayNull || o.MayNull, append(append([]Ref(nil), s.Set...), o.Set...)...)
		}
	}
	return BottomState
}

// LE reports s <= o in the state lattice (s at least as low as o).
func (s State) LE(o State) bool { return s.Meet(o).Equal(s) }

// Initialized reports whether the state is known to be an initialized
// value (an initialized scalar or any pointer value).
func (s State) Initialized() bool {
	return s.Kind == StateInit || s.Kind == StatePointsTo
}

func (s State) String() string {
	switch s.Kind {
	case StateTop:
		return "⊤s"
	case StateBottom:
		return "⊥s"
	case StateUninit:
		return "uninitialized"
	case StateInit:
		return "initialized"
	case StatePointsTo:
		var parts []string
		for _, r := range s.Set {
			parts = append(parts, r.String())
		}
		if s.MayNull {
			parts = append(parts, "null")
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	return "?"
}

// Typestate is the triple <type, state, access> of Section 4.1. The access
// component holds value permissions (f, x, o) only.
//
// Known/ConstVal piggyback a small constant lattice used to recognize
// address formation (sethi %hi / or %lo pairs) against the loader's
// data-symbol table; it refines the analysis but is not part of the
// paper's typestate triple.
type Typestate struct {
	Type   *types.Type
	State  State
	Access Perm

	Known    bool
	ConstVal int64
}

// TopTS is the top typestate, the initial value at unreached program points.
var TopTS = Typestate{Type: types.TopType, State: TopState, Access: PermF | PermX | PermO}

// BottomTS is the typestate of an undefined value with no annotations:
// <⊥t, ⊥s, ∅> (Section 5.1).
var BottomTS = Typestate{Type: types.BottomType, State: BottomState, Access: 0}

// Meet is the componentwise meet of typestates (Section 4.1). The
// constant refinement meets to "known" only when both sides agree.
func (t Typestate) Meet(o Typestate) Typestate {
	m := Typestate{
		Type:   types.Meet(t.Type, o.Type),
		State:  t.State.Meet(o.State),
		Access: t.Access.Meet(o.Access),
	}
	if t.IsTop() {
		m.Known, m.ConstVal = o.Known, o.ConstVal
	} else if o.IsTop() {
		m.Known, m.ConstVal = t.Known, t.ConstVal
	} else if t.Known && o.Known && t.ConstVal == o.ConstVal {
		m.Known, m.ConstVal = true, t.ConstVal
	}
	return m
}

// Equal reports equality of typestates.
func (t Typestate) Equal(o Typestate) bool {
	if t.Known != o.Known || (t.Known && t.ConstVal != o.ConstVal) {
		return false
	}
	return t.Type.Equal(o.Type) && t.State.Equal(o.State) && t.Access == o.Access
}

// IsTop reports whether the typestate is the top element.
func (t Typestate) IsTop() bool {
	return t.Type.Kind == types.Top && t.State.Kind == StateTop
}

func (t Typestate) String() string {
	return fmt.Sprintf("<%s, %s, %s>", t.Type, t.State, t.Access.ValuePerms())
}

// AbsLoc describes an abstract location: a named summary of one or more
// physical locations, with a size, an alignment, optional r/w location
// attributes, and a flag marking summary locations (Section 4.1).
type AbsLoc struct {
	Name     string
	Size     int
	Align    int
	Readable bool
	Writable bool
	// Summary marks an abstract location that summarizes more than one
	// physical location (e.g. all elements of an array); stores to a
	// summary location are weak updates.
	Summary bool
	// Region is the policy region this location belongs to ("" for
	// registers and untrusted scratch locations).
	Region string
	// IsReg marks machine registers, which are always readable and
	// writable and have alignment 0.
	IsReg bool
}

// World is the universe of abstract locations known to an analysis: the
// set absLoc of Section 4.1.
type World struct {
	locs  map[string]*AbsLoc
	order []string
}

// NewWorld returns an empty universe.
func NewWorld() *World {
	return &World{locs: make(map[string]*AbsLoc)}
}

// Add registers an abstract location; it returns an error if the name is
// already taken.
func (w *World) Add(l *AbsLoc) error {
	if _, ok := w.locs[l.Name]; ok {
		return fmt.Errorf("typestate: duplicate abstract location %q", l.Name)
	}
	w.locs[l.Name] = l
	w.order = append(w.order, l.Name)
	return nil
}

// AddReg registers a machine register as an abstract location.
func (w *World) AddReg(name string) *AbsLoc {
	l := &AbsLoc{Name: name, Size: 4, Align: 0, Readable: true, Writable: true, IsReg: true}
	if err := w.Add(l); err != nil {
		return w.locs[name]
	}
	return l
}

// Lookup returns the abstract location with the given name.
func (w *World) Lookup(name string) (*AbsLoc, bool) {
	l, ok := w.locs[name]
	return l, ok
}

// Names returns all abstract-location names in registration order.
func (w *World) Names() []string { return w.order }

// Locs is a location table: it numbers abstract-location names, and a
// Store over the table keeps the typestate of location i in its slot i.
// A table only grows. A name first seen after a store was made gets a
// slot past that store's end, which the store reads as absent. Index
// appends, so a table belongs to one analysis run: nothing may call
// Index while another goroutine uses the table.
type Locs struct {
	names []string
	index map[string]int
}

// NewLocs returns a table numbering the given names in order.
func NewLocs(names ...string) *Locs {
	l := &Locs{index: make(map[string]int, len(names))}
	for _, n := range names {
		l.Index(n)
	}
	return l
}

// Index returns the slot of the named location, appending the name to
// the table when it holds no slot for it yet.
func (l *Locs) Index(name string) int {
	if i, ok := l.index[name]; ok {
		return i
	}
	l.index[name] = len(l.names)
	l.names = append(l.names, name)
	return len(l.names) - 1
}

// Len reports the number of slots the table numbers.
func (l *Locs) Len() int { return len(l.names) }

// Name returns the name of slot i.
func (l *Locs) Name(i int) string { return l.names[i] }

// Store is an abstract store: a total map absLoc -> typestate
// (Section 4.2), held as a dense slice of slots indexed by a location
// table. A slot holds a written typestate or is absent; an absent slot,
// like a slot past the slice's end, reads as the bottom typestate
// <⊥t, ⊥s, ∅> and is not counted by Len or Keys. The zero Typestate
// (nil type) marks an absent slot: every typestate the analysis writes
// has a type. A Store with Top == true, which has no slots, maps every
// location to the top typestate: the initial dataflow value at every
// program point except the entry.
//
// Stores share slices: Meet with ⊤ returns the other store itself, and
// With of an equal typestate returns the store it was called on. Only a
// store's owner may write it, through SetAt or SetInPlace, and only
// before it shares the store; a shared store must be cloned first.
type Store struct {
	Top   bool
	locs  *Locs
	slots []Typestate
}

// TopStore returns the store that is ⊤ everywhere.
func TopStore() Store { return Store{Top: true} }

// NewStore returns an empty (non-top) store over the table l; every
// location reads as the bottom typestate.
func NewStore(l *Locs) Store { return Store{locs: l} }

// Len reports the number of explicitly-tracked typestate facts — the
// fact-size measure the observability layer aggregates per program
// point. The top store tracks none.
func (s Store) Len() int {
	n := 0
	for i := range s.slots {
		if s.Has(i) {
			n++
		}
	}
	return n
}

// Has reports whether slot i holds a written typestate.
func (s Store) Has(i int) bool { return i < len(s.slots) && s.slots[i].Type != nil }

// At returns the typestate in slot i.
func (s Store) At(i int) Typestate {
	switch {
	case s.Top:
		return TopTS
	case s.Has(i):
		return s.slots[i]
	}
	return BottomTS
}

// Get returns the typestate of the named location.
func (s Store) Get(name string) Typestate {
	if s.Top {
		return TopTS
	}
	i, ok := s.locs.index[name]
	if !ok {
		return BottomTS
	}
	return s.At(i)
}

// SetAt writes slot i of a non-top store the caller owns. A slot past
// the slice's end grows it to the table's length, by append, so a store
// written one new name at a time grows in amortized constant time.
func (s *Store) SetAt(i int, ts Typestate) {
	if i >= len(s.slots) {
		s.slots = append(s.slots, make([]Typestate, max(i+1, s.locs.Len())-len(s.slots))...)
	}
	s.slots[i] = ts
}

// SetInPlace writes the named location of a non-top store the caller
// owns, appending the name to the store's table if it is new.
func (s *Store) SetInPlace(name string, ts Typestate) {
	s.SetAt(s.locs.Index(name), ts)
}

// With returns the store with slot i set to ts: s itself when slot i
// already holds a typestate equal to ts, otherwise a copy the caller
// owns.
func (s Store) With(i int, ts Typestate) Store {
	if s.Has(i) && s.slots[i].Equal(ts) {
		return s
	}
	n := s.Clone()
	n.SetAt(i, ts)
	return n
}

// Clone returns a copy of the store that the caller owns: one slice
// as long as the table, so writes to slots the table holds do not grow
// it.
func (s Store) Clone() Store {
	if s.Top {
		return TopStore()
	}
	n := Store{locs: s.locs, slots: make([]Typestate, max(len(s.slots), s.locs.Len()))}
	copy(n.slots, s.slots)
	return n
}

// Meet computes the pointwise meet of two stores over one table; ⊤ is
// the identity, and a meet with ⊤ returns the other store itself. A
// location written in either store is written in the meet, and an
// absent side meets as ⊥. A typestate meets an equal one as itself.
func (s Store) Meet(o Store) Store {
	if s.Top {
		return o
	}
	if o.Top {
		return s
	}
	n := Store{locs: s.locs, slots: make([]Typestate, max(len(s.slots), len(o.slots)))}
	for i := range n.slots {
		switch {
		case s.Has(i) && o.Has(i) && s.slots[i].Equal(o.slots[i]):
			n.slots[i] = s.slots[i]
		case s.Has(i):
			n.slots[i] = s.slots[i].Meet(o.At(i))
		case o.Has(i):
			n.slots[i] = o.slots[i].Meet(BottomTS)
		}
	}
	return n
}

// Equal reports whether two stores are pointwise equal; an absent slot
// equals a written ⊥.
func (s Store) Equal(o Store) bool {
	if s.Top || o.Top {
		return s.Top == o.Top
	}
	for i := range max(len(s.slots), len(o.slots)) {
		if (s.Has(i) || o.Has(i)) && !s.At(i).Equal(o.At(i)) {
			return false
		}
	}
	return true
}

// Keys returns the written location names in sorted order.
func (s Store) Keys() []string {
	var keys []string
	for i := range s.slots {
		if s.Has(i) {
			keys = append(keys, s.locs.names[i])
		}
	}
	sort.Strings(keys)
	return keys
}

func (s Store) String() string {
	if s.Top {
		return "⊤store"
	}
	var b strings.Builder
	for i, k := range s.Keys() {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s:%s", k, s.Get(k))
	}
	return b.String()
}
