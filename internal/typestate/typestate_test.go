package typestate

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mcsafe/internal/types"
)

func TestParsePerm(t *testing.T) {
	p, err := ParsePerm("rwfo")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Has(PermR|PermW|PermF|PermO) || p.Has(PermX) {
		t.Fatalf("ParsePerm(rwfo) = %v", p)
	}
	if _, err := ParsePerm("rz"); err == nil {
		t.Error("ParsePerm(rz) should fail")
	}
	if got := (PermR | PermO).String(); got != "ro" {
		t.Errorf("String() = %q, want ro", got)
	}
	if got := Perm(0).String(); got != "-" {
		t.Errorf("empty Perm String() = %q, want -", got)
	}
}

func TestPermMeetIsIntersection(t *testing.T) {
	a := PermR | PermF | PermO
	b := PermR | PermW | PermO
	if got := a.Meet(b); got != PermR|PermO {
		t.Errorf("Meet = %v", got)
	}
}

func TestStateMeet(t *testing.T) {
	pm := PointsTo(false, Ref{Loc: "m"})
	pn := PointsTo(true) // {null}
	cases := []struct {
		a, b, want State
		name       string
	}{
		{TopState, InitState, InitState, "top identity"},
		{BottomState, InitState, BottomState, "bottom absorbs"},
		{InitState, InitState, InitState, "init idempotent"},
		{UninitState, InitState, BottomState, "uninit meet init"},
		{pm, pn, PointsTo(true, Ref{Loc: "m"}), "pointer set union"},
		{pm, UninitState, BottomState, "pointer meet uninit pointer"},
		{pm, InitState, BottomState, "pointer meet scalar init"},
	}
	for _, c := range cases {
		if got := c.a.Meet(c.b); !got.Equal(c.want) {
			t.Errorf("%s: Meet(%v,%v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}

func TestPointsToNormalization(t *testing.T) {
	s := PointsTo(false, Ref{Loc: "b"}, Ref{Loc: "a"}, Ref{Loc: "b"})
	if len(s.Set) != 2 || s.Set[0].Loc != "a" || s.Set[1].Loc != "b" {
		t.Fatalf("normalize: %v", s.Set)
	}
	if got := s.String(); got != "{a, b}" {
		t.Errorf("String = %q", got)
	}
	if got := PointsTo(true, Ref{Loc: "m"}).String(); got != "{m, null}" {
		t.Errorf("String = %q", got)
	}
}

func TestAddOffset(t *testing.T) {
	s := PointsTo(false, Ref{Loc: "t", Off: 4})
	s2 := s.AddOffset(4)
	if s2.Set[0].Off != 8 {
		t.Fatalf("AddOffset: %v", s2)
	}
	if got := s2.String(); got != "{t+8}" {
		t.Errorf("String = %q", got)
	}
	// Non-pointer states pass through unchanged.
	if got := InitState.AddOffset(4); !got.Equal(InitState) {
		t.Errorf("scalar AddOffset = %v", got)
	}
}

func stateGen(r *rand.Rand) State {
	switch r.Intn(6) {
	case 0:
		return TopState
	case 1:
		return BottomState
	case 2:
		return UninitState
	case 3:
		return InitState
	default:
		locs := []Ref{{Loc: "a"}, {Loc: "b"}, {Loc: "c", Off: 4}}
		var refs []Ref
		for _, l := range locs {
			if r.Intn(2) == 0 {
				refs = append(refs, l)
			}
		}
		return PointsTo(r.Intn(2) == 0, refs...)
	}
}

func TestStateLatticeProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	r := rand.New(rand.NewSource(7))
	check := func(name string, prop func() bool) {
		if err := quick.Check(func(uint8) bool { return prop() }, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	check("commutative", func() bool {
		a, b := stateGen(r), stateGen(r)
		return a.Meet(b).Equal(b.Meet(a))
	})
	check("idempotent", func() bool {
		a := stateGen(r)
		return a.Meet(a).Equal(a)
	})
	check("associative", func() bool {
		a, b, c := stateGen(r), stateGen(r), stateGen(r)
		return a.Meet(b).Meet(c).Equal(a.Meet(b.Meet(c)))
	})
	check("lower bound", func() bool {
		a, b := stateGen(r), stateGen(r)
		m := a.Meet(b)
		return m.LE(a) && m.LE(b)
	})
}

func TestTypestateMeetComponentwise(t *testing.T) {
	a := Typestate{Type: types.Int32Type, State: InitState, Access: PermO | PermF}
	b := Typestate{Type: types.Int32Type, State: UninitState, Access: PermO}
	m := a.Meet(b)
	if !m.Type.Equal(types.Int32Type) || m.State.Kind != StateBottom || m.Access != PermO {
		t.Fatalf("Meet = %v", m)
	}
	if !TopTS.Meet(a).Equal(a) {
		t.Error("TopTS should be meet identity")
	}
}

func TestWorld(t *testing.T) {
	w := NewWorld()
	if err := w.Add(&AbsLoc{Name: "e", Size: 4, Align: 4, Readable: true, Summary: true}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(&AbsLoc{Name: "e"}); err == nil {
		t.Error("duplicate Add should fail")
	}
	w.AddReg("%o0")
	l, ok := w.Lookup("%o0")
	if !ok || !l.IsReg || !l.Readable || !l.Writable {
		t.Fatalf("register absloc: %+v", l)
	}
	if got := w.Names(); len(got) != 2 || got[0] != "e" || got[1] != "%o0" {
		t.Fatalf("Names = %v", got)
	}
}

func TestStoreBasics(t *testing.T) {
	s := TopStore()
	if !s.Get("x").IsTop() {
		t.Error("top store should map everything to top")
	}
	s2 := NewStore(NewLocs())
	s2.SetInPlace("x", Typestate{Type: types.Int32Type, State: InitState, Access: PermO})
	if s2.Top {
		t.Error("a new store is not top")
	}
	if s2.Get("y").Equal(TopTS) {
		t.Error("a new store should read bottom for unmapped")
	}
	if !s2.Get("y").Equal(BottomTS) {
		t.Errorf("unmapped = %v", s2.Get("y"))
	}
	// Clone independence.
	s3 := s2.Clone()
	s3.SetInPlace("x", BottomTS)
	if s2.Get("x").Equal(BottomTS) {
		t.Error("Clone is not independent")
	}
}

func TestStoreMeet(t *testing.T) {
	init := Typestate{Type: types.Int32Type, State: InitState, Access: PermO}
	uninit := Typestate{Type: types.Int32Type, State: UninitState, Access: PermO}

	l := NewLocs()
	a := NewStore(l)
	a.SetInPlace("x", init)
	b := NewStore(l)
	b.SetInPlace("x", uninit)

	m := a.Meet(b)
	if m.Get("x").State.Kind != StateBottom {
		t.Errorf("meet of init/uninit = %v", m.Get("x"))
	}

	// Top is identity.
	if !a.Meet(TopStore()).Equal(a) || !TopStore().Meet(a).Equal(a) {
		t.Error("top store should be meet identity")
	}

	// Locations present in only one store meet with bottom.
	c := NewStore(l)
	c.SetInPlace("y", init)
	m2 := a.Meet(c)
	if m2.Get("y").State.Kind != StateBottom {
		t.Errorf("one-sided location should meet to bottom state, got %v", m2.Get("y"))
	}
}

func TestStoreEqual(t *testing.T) {
	init := Typestate{Type: types.Int32Type, State: InitState, Access: PermO}
	l := NewLocs()
	a := NewStore(l)
	a.SetInPlace("x", init)
	b := NewStore(l)
	b.SetInPlace("x", init)
	if !a.Equal(b) {
		t.Error("equal stores not Equal")
	}
	b.SetInPlace("z", BottomTS)
	if !a.Equal(b) {
		t.Error("explicit bottom should equal missing entry")
	}
	b.SetInPlace("z", init)
	if a.Equal(b) {
		t.Error("different stores Equal")
	}
	if a.Equal(TopStore()) || !TopStore().Equal(TopStore()) {
		t.Error("top store equality wrong")
	}
}

// TestStoreAbsentIsBottom: an absent slot, whether unwritten or past a
// store's end because the table grew after the store was made, reads as
// ⊥ under Get and At, meets as ⊥, and equals a written ⊥.
func TestStoreAbsentIsBottom(t *testing.T) {
	init := Typestate{Type: types.Int32Type, State: InitState, Access: PermO}
	l := NewLocs("a", "b")
	short := NewStore(l)
	short.SetInPlace("a", init)
	long := short.Clone()
	long.SetInPlace("late", init) // appended to the table, past short's end
	for _, name := range []string{"b", "late", "unknown"} {
		if got := short.Get(name); !got.Equal(BottomTS) {
			t.Errorf("absent %s reads %v, want ⊥", name, got)
		}
	}
	if got := short.At(l.Index("late")); !got.Equal(BottomTS) {
		t.Errorf("slot past the end reads %v, want ⊥", got)
	}
	for _, m := range []Store{short.Meet(long), long.Meet(short)} {
		if got, want := m.Get("late"), init.Meet(BottomTS); !got.Equal(want) {
			t.Errorf("absent ⊓ init = %v, want %v", got, want)
		}
		if m.Len() != 2 {
			t.Errorf("meet writes %d locations (%v), want a and late", m.Len(), m.Keys())
		}
	}
	if short.Equal(long) || long.Equal(short) {
		t.Error("an absent slot equals a written init")
	}
	bottom := short.Clone()
	bottom.SetInPlace("late", BottomTS)
	if !short.Equal(bottom) || !bottom.Equal(short) {
		t.Error("an absent slot should equal a written ⊥")
	}
}

// TestStoreLenKeysCountWritten: Len and Keys count written slots only,
// ⊥ writes included, never the table's other names.
func TestStoreLenKeysCountWritten(t *testing.T) {
	l := NewLocs("r0", "r1", "r2", "m")
	s := NewStore(l)
	if s.Len() != 0 || len(s.Keys()) != 0 {
		t.Fatalf("empty store: Len %d, Keys %v", s.Len(), s.Keys())
	}
	s.SetInPlace("m", BottomTS)
	s.SetInPlace("r1", Typestate{Type: types.Int32Type, State: InitState, Access: PermO})
	if s.Len() != 2 || strings.Join(s.Keys(), ",") != "m,r1" {
		t.Errorf("Len %d, Keys %v, want 2 and [m r1]", s.Len(), s.Keys())
	}
	if c := s.Clone(); c.Len() != 2 {
		t.Errorf("clone Len %d, want 2", c.Len())
	}
	if TopStore().Len() != 0 {
		t.Error("the top store tracks no facts")
	}
}

// TestStoreWritesStayPrivate: a write to a clone never shows in the
// original, nor in a store shared through a ⊤-meet.
func TestStoreWritesStayPrivate(t *testing.T) {
	init := Typestate{Type: types.Int32Type, State: InitState, Access: PermO}
	l := NewLocs("x", "y")
	orig := NewStore(l)
	orig.SetInPlace("x", init)
	shared := TopStore().Meet(orig)
	c := shared.Clone()
	c.SetInPlace("x", BottomTS)
	c.SetInPlace("y", init)
	c.SetInPlace("z", init)
	for _, s := range []Store{orig, shared, orig.Meet(TopStore())} {
		if got := s.String(); got != "x:<int32, initialized, o>" {
			t.Errorf("store reads %q after writes to a clone", got)
		}
	}
}
