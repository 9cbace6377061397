// Package types implements the type system of Figure 4 of "Safety Checking
// of Machine Code" (Xu, Miller, Reps; PLDI 2000): ground types with a notion
// of subtyping, pointers, pointers to array bases t[n], pointers into the
// middle of arrays t(n], structs, unions, function types, named abstract
// types, and the lattice elements top and bottom. Types carry size and
// alignment, and form a meet semi-lattice under Meet.
package types

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates the variants of the type language of Figure 4.
type Kind int

const (
	// Bottom is the bottom type, the meet of incompatible types.
	Bottom Kind = iota
	// Top is the top type; every location starts at Top before
	// typestate propagation reaches it.
	Top
	// Ground is a machine-level scalar type (int8 ... uint32).
	Ground
	// Abstract is a host-declared opaque type: untrusted code may copy
	// values of an abstract type but cannot look inside them.
	Abstract
	// Ptr is "t ptr": a pointer to a single object of the element type.
	Ptr
	// ArrayBase is "t[n]": a pointer to the base of an array of n
	// elements of the element type.
	ArrayBase
	// ArrayIn is "t(n]": a pointer somewhere into the middle (or base)
	// of an array of n elements of the element type.
	ArrayIn
	// Struct is "s {m1, ..., mk}".
	Struct
	// Union is "u {|m1, ..., mk|}".
	Union
	// Func is "(t1, ..., tk) -> t".
	Func
)

// GroundKind enumerates the ground types. The numeric order is chosen so
// that widening conversions correspond to increasing rank within a
// signedness class.
type GroundKind int

const (
	Int8 GroundKind = iota
	UInt8
	Int16
	UInt16
	Int32
	UInt32
)

// Member is a struct or union member: a label, a member type, and a byte
// offset within the aggregate (always 0 for union members).
type Member struct {
	Label  string
	Type   *Type
	Offset int
}

// Bound is an array bound: either a compile-time constant or a symbolic
// name bound by the host's invocation specification (e.g. "n" in int[n]).
type Bound struct {
	Name  string // symbolic name; empty means constant
	Const int64  // value when Name == ""
}

// IsConst reports whether the bound is a compile-time constant.
func (b Bound) IsConst() bool { return b.Name == "" }

// Equal reports whether two bounds are identical.
func (b Bound) Equal(o Bound) bool { return b.Name == o.Name && b.Const == o.Const }

func (b Bound) String() string {
	if b.Name != "" {
		return b.Name
	}
	return fmt.Sprintf("%d", b.Const)
}

// ConstBound returns a constant array bound.
func ConstBound(n int64) Bound { return Bound{Const: n} }

// SymBound returns a symbolic array bound named by the host specification.
func SymBound(name string) Bound { return Bound{Name: name} }

// Type is a node in the type language of Figure 4. Types are immutable
// after construction; share freely.
type Type struct {
	Kind    Kind
	Grd     GroundKind // for Kind == Ground
	Name    string     // for Abstract, Struct, Union: the declared tag
	Elem    *Type      // for Ptr, ArrayBase, ArrayIn
	N       Bound      // for ArrayBase, ArrayIn
	Members []Member   // for Struct, Union
	Params  []*Type    // for Func
	Result  *Type      // for Func

	size  int // cached byte size
	align int // cached alignment
}

// Singleton lattice constants and common scalars.
var (
	TopType    = &Type{Kind: Top}
	BottomType = &Type{Kind: Bottom}

	Int8Type   = ground(Int8, 1)
	UInt8Type  = ground(UInt8, 1)
	Int16Type  = ground(Int16, 2)
	UInt16Type = ground(UInt16, 2)
	Int32Type  = ground(Int32, 4)
	UInt32Type = ground(UInt32, 4)
)

func ground(g GroundKind, size int) *Type {
	return &Type{Kind: Ground, Grd: g, size: size, align: size}
}

// GroundByName resolves a ground-type name used by the policy language.
func GroundByName(name string) (*Type, bool) {
	switch name {
	case "int8", "char":
		return Int8Type, true
	case "uint8", "uchar", "byte":
		return UInt8Type, true
	case "int16", "short":
		return Int16Type, true
	case "uint16", "ushort":
		return UInt16Type, true
	case "int32", "int":
		return Int32Type, true
	case "uint32", "uint", "word":
		return UInt32Type, true
	}
	return nil, false
}

// NewPtr returns the type "elem ptr".
func NewPtr(elem *Type) *Type {
	return &Type{Kind: Ptr, Elem: elem, size: 4, align: 4}
}

// NewArrayBase returns the type "elem[n]".
func NewArrayBase(elem *Type, n Bound) *Type {
	return &Type{Kind: ArrayBase, Elem: elem, N: n, size: 4, align: 4}
}

// NewArrayIn returns the type "elem(n]".
func NewArrayIn(elem *Type, n Bound) *Type {
	return &Type{Kind: ArrayIn, Elem: elem, N: n, size: 4, align: 4}
}

// NewAbstract returns a named abstract (opaque) type of the given size and
// alignment.
func NewAbstract(name string, size, align int) *Type {
	return &Type{Kind: Abstract, Name: name, size: size, align: align}
}

// NewStruct returns a struct type. Member offsets must already be laid out;
// size is the total size (including trailing padding) and align the
// aggregate alignment.
func NewStruct(name string, members []Member, size, align int) *Type {
	return &Type{Kind: Struct, Name: name, Members: members, size: size, align: align}
}

// NewUnion returns a union type; all members are at offset 0.
func NewUnion(name string, members []Member, size, align int) *Type {
	return &Type{Kind: Union, Name: name, Members: members, size: size, align: align}
}

// NewFunc returns the function type "(params) -> result". result may be nil
// for a function returning nothing.
func NewFunc(params []*Type, result *Type) *Type {
	return &Type{Kind: Func, Params: params, Result: result, size: 4, align: 4}
}

// LayoutStruct computes natural (SPARC V8 / System V) member offsets for
// the given labeled member types and returns the finished struct type.
func LayoutStruct(name string, labels []string, memberTypes []*Type) *Type {
	var members []Member
	off, maxAlign := 0, 1
	for i, mt := range memberTypes {
		a := mt.Align()
		if a > maxAlign {
			maxAlign = a
		}
		off = alignUp(off, a)
		members = append(members, Member{Label: labels[i], Type: mt, Offset: off})
		off += mt.Size()
	}
	return NewStruct(name, members, alignUp(off, maxAlign), maxAlign)
}

func alignUp(n, a int) int {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// Size returns the byte size of a value of this type. Pointers are 4 bytes
// (SPARC V8 is a 32-bit architecture). Top and Bottom have size 0.
func (t *Type) Size() int { return t.size }

// Align returns the required byte alignment of a value of this type.
func (t *Type) Align() int {
	if t.align == 0 {
		return 1
	}
	return t.align
}

// IsPointer reports whether values of this type are addresses that could
// be dereferenced (Ptr, ArrayBase, ArrayIn, or Func pointers).
func (t *Type) IsPointer() bool {
	switch t.Kind {
	case Ptr, ArrayBase, ArrayIn, Func:
		return true
	}
	return false
}

// IsScalar reports whether the type is a non-pointer scalar (ground or
// abstract of register size).
func (t *Type) IsScalar() bool {
	return t.Kind == Ground || t.Kind == Abstract
}

// Signed reports whether a ground type is signed.
func (t *Type) Signed() bool {
	if t.Kind != Ground {
		return false
	}
	switch t.Grd {
	case Int8, Int16, Int32:
		return true
	}
	return false
}

// Equal reports structural equality of types.
func (t *Type) Equal(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case Bottom, Top:
		return true
	case Ground:
		return t.Grd == o.Grd
	case Abstract:
		return t.Name == o.Name
	case Ptr:
		return t.Elem.Equal(o.Elem)
	case ArrayBase, ArrayIn:
		return t.N.Equal(o.N) && t.Elem.Equal(o.Elem)
	case Struct, Union:
		// Nominal equality: aggregates are declared once per policy, and
		// nominal comparison keeps equality well-defined for
		// self-referential structures (e.g. linked lists).
		return t.Name == o.Name
	case Func:
		if len(t.Params) != len(o.Params) {
			return false
		}
		for i := range t.Params {
			if !t.Params[i].Equal(o.Params[i]) {
				return false
			}
		}
		if (t.Result == nil) != (o.Result == nil) {
			return false
		}
		return t.Result == nil || t.Result.Equal(o.Result)
	}
	return false
}

// groundMeet implements the subtyping refinement of footnote 2: the meet of
// two related ground types is the narrower one; unrelated ground types meet
// to Bottom. A narrower type is a subtype of a wider type of the same
// signedness, and an unsigned type is a subtype of any strictly wider
// signed type (its values embed losslessly).
func groundMeet(a, b GroundKind) (*Type, bool) {
	if groundLE(a, b) {
		return groundTypes[a], true
	}
	if groundLE(b, a) {
		return groundTypes[b], true
	}
	return nil, false
}

// groundTypes are the common scalars by kind: a meet of ground types
// returns one of them rather than allocating.
var groundTypes = [...]*Type{
	Int8: Int8Type, UInt8: UInt8Type, Int16: Int16Type,
	UInt16: UInt16Type, Int32: Int32Type, UInt32: UInt32Type,
}

func groundSize(g GroundKind) int {
	switch g {
	case Int8, UInt8:
		return 1
	case Int16, UInt16:
		return 2
	}
	return 4
}

func groundSigned(g GroundKind) bool { return g == Int8 || g == Int16 || g == Int32 }

// groundLE reports a <= b in the ground subtype order: a narrower type is
// a subtype of a wider type of the same signedness. Cross-signedness
// subtyping is deliberately excluded to keep the order a meet semilattice.
func groundLE(a, b GroundKind) bool {
	if a == b {
		return true
	}
	return groundSigned(a) == groundSigned(b) && groundSize(a) <= groundSize(b)
}

// Meet computes the meet of two types in the semi-lattice of Section 4.1:
//
//   - meet of identical types is that type;
//   - meet of two related ground types is the narrower (footnote 2);
//   - meet of two different non-pointer types is Bottom;
//   - meet of two different pointer types, or of a pointer type and a
//     non-pointer type, is Bottom;
//   - meet of t[n] and t(n] is t(n]; t[n] with t[m] (m != n) is Bottom.
func Meet(a, b *Type) *Type {
	switch {
	case a == nil || b == nil:
		return BottomType
	case a.Kind == Top:
		return b
	case b.Kind == Top:
		return a
	case a.Kind == Bottom || b.Kind == Bottom:
		return BottomType
	}
	if a.Kind == Ground && b.Kind == Ground {
		if m, ok := groundMeet(a.Grd, b.Grd); ok {
			return m
		}
		return BottomType
	}
	// Array base/interior interaction.
	if (a.Kind == ArrayBase || a.Kind == ArrayIn) && (b.Kind == ArrayBase || b.Kind == ArrayIn) {
		if a.Elem.Equal(b.Elem) && a.N.Equal(b.N) {
			if a.Kind == ArrayIn || b.Kind == ArrayIn {
				return NewArrayIn(a.Elem, a.N)
			}
			return a
		}
		return BottomType
	}
	if a.Equal(b) {
		return a
	}
	return BottomType
}

// LE reports whether a <= b in the type lattice (a is at least as precise
// as b), i.e. Meet(a, b) == a.
func LE(a, b *Type) bool { return Meet(a, b).Equal(a) }

// Field is the result of a LookUp: a member path (the sequence beta of
// field names of Section 4.2) together with the scalar type found there.
type Field struct {
	Path   string // dot-separated member labels; "" means the whole object
	Type   *Type
	Offset int
}

// LookUp takes a type and two integers n and m and returns the set of
// fields of t that live at byte offset n and have size m, descending into
// nested aggregates; it returns nil if no such field exists (Section 4.2.2).
// For array-element types the offset is interpreted modulo the element.
func LookUp(t *Type, n, m int) []Field {
	var out []Field
	lookUp(t, n, m, "", 0, &out)
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

func lookUp(t *Type, n, m int, path string, base int, out *[]Field) {
	if t == nil {
		return
	}
	switch t.Kind {
	case Ground, Abstract, Ptr, ArrayBase, ArrayIn, Func:
		if n == 0 && t.Size() == m {
			*out = append(*out, Field{Path: path, Type: t, Offset: base})
		}
	case Struct:
		for _, mem := range t.Members {
			if n >= mem.Offset && n < mem.Offset+mem.Type.Size() {
				lookUp(mem.Type, n-mem.Offset, m, joinPath(path, mem.Label), base+mem.Offset, out)
			}
		}
	case Union:
		for _, mem := range t.Members {
			if n < mem.Type.Size() {
				lookUp(mem.Type, n, m, joinPath(path, mem.Label), base, out)
			}
		}
	}
}

func joinPath(a, b string) string {
	if a == "" {
		return b
	}
	return a + "." + b
}

func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case Bottom:
		return "⊥t"
	case Top:
		return "⊤t"
	case Ground:
		switch t.Grd {
		case Int8:
			return "int8"
		case UInt8:
			return "uint8"
		case Int16:
			return "int16"
		case UInt16:
			return "uint16"
		case Int32:
			return "int32"
		case UInt32:
			return "uint32"
		}
		return "ground?"
	case Abstract:
		return "abstract " + t.Name
	case Ptr:
		return t.Elem.String() + " ptr"
	case ArrayBase:
		return fmt.Sprintf("%s[%s]", t.Elem, t.N)
	case ArrayIn:
		return fmt.Sprintf("%s(%s]", t.Elem, t.N)
	case Struct:
		return "struct " + t.Name
	case Union:
		return "union " + t.Name
	case Func:
		var ps []string
		for _, p := range t.Params {
			ps = append(ps, p.String())
		}
		r := "void"
		if t.Result != nil {
			r = t.Result.String()
		}
		return "(" + strings.Join(ps, ", ") + ") -> " + r
	}
	return "?"
}
