package difftest

import (
	"math/rand"
	"testing"

	"mcsafe/internal/progs"
)

// TestDiffInsnRoundTrip: decode(encode(i)) == i for random canonical
// instructions across every format and addressing mode.
func TestDiffInsnRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		insn := GenInsn(r)
		if err := CheckInsnRoundTrip(insn); err != nil {
			t.Fatalf("insn %d (seed 7): %v", i, err)
		}
	}
}

// TestDiffWordRoundTrip: the decoder laws on arbitrary 32-bit words —
// no panics, re-encodable, bit-identical modulo don't-care bits,
// decode∘encode idempotent. Random words plus a structured sweep of the
// discriminating fields.
func TestDiffWordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 20000; i++ {
		w := r.Uint32()
		if err := CheckWordRoundTrip(w); err != nil {
			t.Fatalf("word %d (seed 8): %v", i, err)
		}
	}
	// Structured corners: every op/op2/op3 discriminator value with a
	// few operand patterns.
	for op := uint32(0); op < 4; op++ {
		for op3 := uint32(0); op3 < 64; op3++ {
			for _, rest := range []uint32{0, 0x00002000, 0x00001fff, 0x3fffffff, 0x0000201f} {
				w := op<<30 | op3<<19 | rest&0x3807ffff
				if err := CheckWordRoundTrip(w); err != nil {
					t.Fatalf("structured word 0x%08x: %v", w, err)
				}
			}
		}
	}
}

// TestDiffProgramRoundTrip: every word of all thirteen evaluation
// programs round-trips and the assembled instruction view agrees with a
// fresh decode of the emitted words.
func TestDiffProgramRoundTrip(t *testing.T) {
	for _, b := range progs.All() {
		prog, _, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := CheckProgramRoundTrip(prog); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}
