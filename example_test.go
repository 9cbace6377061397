package mcsafe_test

import (
	"context"
	"fmt"

	"mcsafe"
)

const exampleAsm = `
1:  mov %o0,%o2
2:  clr %o0
3:  cmp %o0,%o1
4:  bge 12
5:  clr %g3
6:  sll %g3,2,%g2
7:  ld [%o2+%g2],%g2
8:  inc %g3
9:  cmp %g3,%o1
10: bl 6
11: add %o0,%g2,%o0
12: retl
13: nop
`

const exampleSpec = `
region V
loc e  int    state init region V summary
val arr int[n] state {e} region V
constraint n >= 1
invoke %o0 = arr
invoke %o1 = n
allow V int ro
allow V int[n] rfo
`

// ExampleChecker_Check verifies the paper's Figure 1 array-summation
// loop with an observed, single-worker Checker and reads the effort
// counters off the trace.
func ExampleChecker_Check() {
	spec, err := mcsafe.ParseSpec(exampleSpec)
	if err != nil {
		panic(err)
	}
	prog, err := mcsafe.Assemble(exampleAsm, spec, "")
	if err != nil {
		panic(err)
	}

	tr := mcsafe.NewTrace()
	c := mcsafe.New(mcsafe.WithParallelism(1), mcsafe.WithObserver(tr))
	res, err := c.Check(context.Background(), prog, spec)
	if err != nil {
		panic(err)
	}

	fmt.Println("safe:", res.Safe)
	fmt.Println("global conditions:", tr.Counter("vcgen_conditions"))
	fmt.Println("loop invariants synthesized:", tr.Counter("induction_runs") > 0)
	// Output:
	// safe: true
	// global conditions: 4
	// loop invariants synthesized: true
}

// ExampleChecker_CheckAll checks a batch of programs concurrently with
// one configured Checker; outcomes stay indexed like the items.
func ExampleChecker_CheckAll() {
	spec, err := mcsafe.ParseSpec(exampleSpec)
	if err != nil {
		panic(err)
	}
	prog, err := mcsafe.Assemble(exampleAsm, spec, "")
	if err != nil {
		panic(err)
	}

	c := mcsafe.New(mcsafe.WithParallelism(1))
	items := []mcsafe.BatchItem{
		{Prog: prog, Spec: spec},
		{Prog: nil, Spec: spec}, // a bad item errors positionally
		{Prog: prog, Spec: spec},
	}
	for i, out := range c.CheckAll(context.Background(), items, 2) {
		if out.Err != nil {
			fmt.Printf("item %d: error\n", i)
			continue
		}
		fmt.Printf("item %d: safe=%v\n", i, out.Result.Safe)
	}
	// Output:
	// item 0: safe=true
	// item 1: error
	// item 2: safe=true
}
