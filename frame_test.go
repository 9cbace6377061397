package mcsafe

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mcsafe/internal/progs"
)

// TestFrameOnAliasedEntry: a frame annotation binds to the procedure
// entry its label marks, whichever of the entry's labels it names.
// Stack-smashing with a lesser label `aaa:` before `smash:` must get
// the verdict and violations of the unaliased program, its two `oob`
// stores, not the local violations of a frame checked unbound.
func TestFrameOnAliasedEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("slow program: skipped under the race detector")
	}
	b := progs.Get("Stack-smashing")
	spec, err := ParseSpec(b.Spec)
	if err != nil {
		t.Fatal(err)
	}
	check := func(src string) *Result {
		t.Helper()
		prog, err := Assemble(src, spec, b.Entry)
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(WithParallelism(1)).Check(context.Background(), prog, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	aliased := strings.Replace(b.Source, "\nsmash:\n", "\naaa:\nsmash:\n", 1)
	if aliased == b.Source {
		t.Fatal("Stack-smashing has no `smash:` line to alias")
	}
	want, got := check(b.Source), check(aliased)
	if got.Safe != want.Safe || !reflect.DeepEqual(codesOf(got.Violations), codesOf(want.Violations)) {
		t.Fatalf("aliased entry: safe=%v %v, want safe=%v %v",
			got.Safe, codesOf(got.Violations), want.Safe, codesOf(want.Violations))
	}
	for i := range want.Violations {
		if got.Violations[i].Index != want.Violations[i].Index || got.Violations[i].Desc != want.Violations[i].Desc {
			t.Errorf("violation %d: %v, want %v", i, got.Violations[i], want.Violations[i])
		}
	}
}

func codesOf(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Code
	}
	return out
}

// TestFrameNamesNoProcedure: a frame whose label marks no procedure
// entry fails the check with an error naming the label, as an unknown
// call target does, instead of being skipped.
func TestFrameNamesNoProcedure(t *testing.T) {
	const src = "f:\n  save %sp,-96,%sp\nmid:\n  ret\n  restore\n"
	for _, label := range []string{"nosuch", "mid"} {
		spec, err := ParseSpec("frame " + label + " size 96\nend\n")
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Assemble(src, spec, "f")
		if err != nil {
			t.Fatal(err)
		}
		res, err := New().Check(context.Background(), prog, spec)
		if err == nil {
			t.Fatalf("frame %s: accepted (safe=%v), want an error", label, res.Safe)
		}
		if !strings.Contains(err.Error(), `"`+label+`"`) {
			t.Errorf("frame %s: error %q does not name the label", label, err)
		}
	}
}

// TestFrameSaveCheckOnAlias: the save-size check applies to a frame
// that names a procedure by its greater label.
func TestFrameSaveCheckOnAlias(t *testing.T) {
	const src = "main:\n  save %sp,-96,%sp\n  call g\n  nop\n  ret\n  restore\n" +
		"f:\ng:\n  save %sp,-96,%sp\n  ret\n  restore\n"
	spec, err := ParseSpec("frame g size 160\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble(src, spec, "main")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Check(context.Background(), prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := codesOf(res.Violations); !reflect.DeepEqual(got, []string{CodeStack}) {
		t.Fatalf("96-byte save against frame g size 160: violations %v, want [%s]", got, CodeStack)
	}
}
