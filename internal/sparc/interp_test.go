package sparc

import (
	"math/rand"
	"testing"

	"mcsafe/internal/isa"
	"mcsafe/internal/rtl"
)

// runFig1 executes the Figure 1 array-summation code concretely.
func runFig1(t *testing.T, arr []int32) int32 {
	t.Helper()
	p, err := Arch.Assemble(fig1Source, isa.AsmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := isa.NewMachine(p)
	const base = 0x40000
	for i, v := range arr {
		m.Store32(base+uint32(4*i), uint32(v))
	}
	m.SetReg(rtl.Reg(O0), base)
	m.SetReg(rtl.Reg(O0+1), uint32(len(arr)))
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	return int32(m.Reg(rtl.Reg(O0)))
}

// TestInterpFig1Sum: the decoded binary really sums the array — the
// instruction semantics (delay slots included) agree with the source
// comments of Figure 1.
func TestInterpFig1Sum(t *testing.T) {
	cases := [][]int32{
		{5},
		{1, 2, 3},
		{-4, 4, 10, -10, 7},
		{0, 0, 0, 0},
	}
	for _, arr := range cases {
		var want int32
		for _, v := range arr {
			want += v
		}
		if got := runFig1(t, arr); got != want {
			t.Errorf("sum(%v) = %d, want %d", arr, got, want)
		}
	}
}

func TestInterpFig1RandomDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		n := 1 + r.Intn(20)
		arr := make([]int32, n)
		var want int32
		for j := range arr {
			arr[j] = int32(r.Intn(2001) - 1000)
			want += arr[j]
		}
		if got := runFig1(t, arr); got != want {
			t.Fatalf("sum(%v) = %d, want %d", arr, got, want)
		}
	}
}

// TestInterpMemorySafetyOfVerifiedSum: the static verdict is validated
// dynamically — every memory access of the checker-approved Figure 1
// code stays within the declared array.
func TestInterpMemorySafetyOfVerifiedSum(t *testing.T) {
	p, err := Arch.Assemble(fig1Source, isa.AsmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		n := 1 + r.Intn(16)
		m := isa.NewMachine(p)
		const base = 0x40000
		lo, hi := uint32(base), uint32(base+4*n)
		m.OnMem = func(addr uint32, size int, write bool) {
			if addr < lo || addr+uint32(size) > hi {
				t.Fatalf("n=%d: access at 0x%x outside [0x%x, 0x%x)", n, addr, lo, hi)
			}
			if write {
				t.Fatalf("sum must not write memory")
			}
			if addr%4 != 0 {
				t.Fatalf("misaligned access at 0x%x", addr)
			}
		}
		for j := 0; j < n; j++ {
			m.Store32(base+uint32(4*j), uint32(r.Intn(100)))
		}
		m.SetReg(rtl.Reg(O0), base)
		m.SetReg(rtl.Reg(O0+1), uint32(n))
		if err := m.Run(100000); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInterpBranches covers each signed condition.
func TestInterpBranches(t *testing.T) {
	src := `
	cmp %o0,%o1
	ble le
	nop
	mov 1,%o2       ! greater
	retl
	nop
le:
	mov 2,%o2
	retl
	nop
`
	p, err := Arch.Assemble(src, isa.AsmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(a, b int32) uint32 {
		m := isa.NewMachine(p)
		m.SetReg(rtl.Reg(O0), uint32(a))
		m.SetReg(rtl.Reg(O0+1), uint32(b))
		if err := m.Run(1000); err != nil {
			t.Fatal(err)
		}
		return m.Reg(rtl.Reg(O0 + 2))
	}
	if run(5, 3) != 1 {
		t.Error("5 > 3 should take the greater path")
	}
	if run(3, 5) != 2 || run(4, 4) != 2 {
		t.Error("<= should take the le path")
	}
	if run(-7, -2) != 2 {
		t.Error("signed comparison: -7 <= -2")
	}
}

// TestInterpCallWindows: a save/restore callee sees its arguments in %i
// registers and the caller's locals survive the call.
func TestInterpCallWindows(t *testing.T) {
	src := `
main:
	save %sp,-96,%sp
	mov 41,%l3
	mov 20,%o0
	call dbl
	mov 11,%o1
	add %o0,%l3,%i0   ! result + preserved local
	ret
	restore
dbl:
	save %sp,-96,%sp
	add %i0,%i0,%l0   ! 2*a
	add %l0,%i1,%i0   ! + b
	ret
	restore
`
	p, err := Arch.Assemble(src, isa.AsmOptions{Entry: "main"})
	if err != nil {
		t.Fatal(err)
	}
	m := isa.NewMachine(p)
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	// dbl(20, 11) = 51; + 41 = 92, returned in the caller's %i0... which
	// after main's restore is the entry window's %o0.
	if got := m.Reg(rtl.Reg(O0)); got != 92 {
		t.Errorf("result = %d, want 92", got)
	}
}

// TestInterpAnnulledBranch: ba,a skips the delay slot; be,a executes it
// only when taken.
func TestInterpAnnulledBranch(t *testing.T) {
	src := `
	clr %o2
	ba,a over
	mov 99,%o2        ! must NOT execute
over:
	retl
	nop
`
	p, _ := Arch.Assemble(src, isa.AsmOptions{})
	m := isa.NewMachine(p)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.Reg(rtl.Reg(O0+2)) != 0 {
		t.Error("ba,a executed its delay slot")
	}

	src2 := `
	cmp %o0,%g0
	be,a over
	mov 7,%o2         ! executes only if taken
	mov 3,%o2
over:
	retl
	nop
`
	p2, _ := Arch.Assemble(src2, isa.AsmOptions{})
	run := func(o0 uint32) uint32 {
		m := isa.NewMachine(p2)
		m.SetReg(rtl.Reg(O0), o0)
		if err := m.Run(100); err != nil {
			t.Fatal(err)
		}
		return m.Reg(rtl.Reg(O0 + 2))
	}
	if run(0) != 7 {
		t.Error("taken be,a should execute the delay slot")
	}
	if run(1) != 3 {
		t.Error("untaken be,a must skip the delay slot")
	}
}

// TestInterpMemOps: byte/half loads and stores, sign extension.
func TestInterpMemOps(t *testing.T) {
	src := `
	st %o1,[%o0]
	ldsb [%o0],%o2     ! sign-extended top byte
	ldub [%o0],%o3
	ldsh [%o0],%o4
	lduh [%o0],%o5
	retl
	nop
`
	p, _ := Arch.Assemble(src, isa.AsmOptions{})
	m := isa.NewMachine(p)
	m.SetReg(rtl.Reg(O0), 0x50000)
	m.SetReg(rtl.Reg(O0+1), 0xFFEE1234)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if int32(m.Reg(rtl.Reg(O0+2))) != -1 {
		t.Errorf("ldsb = %#x, want -1", m.Reg(rtl.Reg(O0+2)))
	}
	if m.Reg(rtl.Reg(O0+3)) != 0xFF {
		t.Errorf("ldub = %#x", m.Reg(rtl.Reg(O0+3)))
	}
	if int32(m.Reg(rtl.Reg(O0+4))) != -18 { // 0xFFEE sign-extended
		t.Errorf("ldsh = %#x", m.Reg(rtl.Reg(O0+4)))
	}
	if m.Reg(rtl.Reg(O0+5)) != 0xFFEE {
		t.Errorf("lduh = %#x", m.Reg(rtl.Reg(O0+5)))
	}
}

// TestInterpFaults: runaway loops and bad jumps are reported.
func TestInterpFaults(t *testing.T) {
	p, _ := Arch.Assemble("loop: ba loop\nnop", isa.AsmOptions{})
	m := isa.NewMachine(p)
	if err := m.Run(100); err == nil {
		t.Error("runaway loop should not terminate")
	}

	p2, err := Arch.Assemble("jmpl %o0,%g0,%g0\nnop\nretl\nnop", isa.AsmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m2 := isa.NewMachine(p2)
	m2.SetReg(rtl.Reg(O0), 0xDEAD)
	if err := m2.Run(100); err == nil {
		t.Error("jump to unmapped address should fault")
	}
}
