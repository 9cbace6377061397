package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// checkBalanced walks an event stream with a stack and fails on any
// unmatched begin/end, improper nesting, or an end for an unopened
// span.
func checkBalanced(t *testing.T, events []Event) {
	t.Helper()
	var stack []SpanID
	open := map[SpanID]bool{}
	for i, e := range events {
		switch e.Ev {
		case "b":
			if e.Parent != 0 && !open[e.Parent] {
				// A span's parent may have been opened by another
				// goroutine; it must at least already exist in the
				// stream and still be open.
				t.Fatalf("event %d: span %d begins under closed/unknown parent %d", i, e.Span, e.Parent)
			}
			stack = append(stack, e.Span)
			open[e.Span] = true
		case "e":
			if !open[e.Span] {
				t.Fatalf("event %d: end of unopened span %d", i, e.Span)
			}
			open[e.Span] = false
			// Per-goroutine nesting means the ended span need not be
			// the global stack top, but it must still be on the stack.
			found := false
			for j := len(stack) - 1; j >= 0; j-- {
				if stack[j] == e.Span {
					stack = append(stack[:j], stack[j+1:]...)
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("event %d: end of span %d not on stack", i, e.Span)
			}
		default:
			t.Fatalf("event %d: unknown ev %q", i, e.Ev)
		}
	}
	if len(stack) != 0 {
		t.Fatalf("%d spans never ended: %v", len(stack), stack)
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	w := tr.Worker(0)
	if w != nil {
		t.Fatal("nil trace produced a non-nil worker")
	}
	w.Begin("k", "n")
	w.Add("c", 1)
	w.End()
	w.Flush()
	if got := tr.Events(); got != nil {
		t.Fatalf("nil trace has events: %v", got)
	}
	if tr.Counter("c") != 0 {
		t.Fatal("nil trace has counters")
	}
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteText: err=%v out=%q", err, buf.String())
	}
	w2 := w.Fork()
	if w2 != nil {
		t.Fatal("nil worker forked a non-nil worker")
	}
}

func TestSpanNesting(t *testing.T) {
	tr := New()
	w := tr.Worker(0)
	root := w.Begin("check", "check")
	w.Begin("phase", "typestate")
	w.End()
	w.Begin("phase", "global")
	w.Begin("cond", "array upper bound")
	w.Begin("query", "valid")
	w.End("verdict", "true")
	w.End()
	w.End()
	w.End()
	w.Add("x", 3)
	w.Add("x", 4)
	w.Flush()

	events := tr.Events()
	checkBalanced(t, events)
	if len(events) != 10 {
		t.Fatalf("got %d events, want 10", len(events))
	}
	if tr.Counter("x") != 7 {
		t.Fatalf("counter x = %d, want 7", tr.Counter("x"))
	}
	sp, ok := tr.SpanByID(root)
	if !ok || sp.Kind != "check" {
		t.Fatalf("SpanByID(root) = %+v, %v", sp, ok)
	}
	for _, s := range tr.Spans() {
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
	}
	// The query span's end attrs survive into the event stream.
	found := false
	for _, e := range events {
		if e.Ev == "e" && e.Attrs["verdict"] == "true" {
			found = true
		}
	}
	if !found {
		t.Fatal("query verdict attribute lost")
	}
}

// TestConcurrentWorkersBalanced exercises the pool shape: one parent
// span, many forked workers recording concurrently, merged stream
// still balanced.
func TestConcurrentWorkersBalanced(t *testing.T) {
	tr := New()
	root := tr.Worker(0)
	root.Begin("check", "check")
	root.Begin("phase", "global")

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		fw := root.Fork()
		go func(w *Worker) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w.Begin("chunk", "chunk")
				w.Begin("query", "valid")
				w.Add("queries", 1)
				w.End()
				w.End()
			}
			w.Flush()
		}(fw)
	}
	wg.Wait()
	root.End()
	root.End()
	root.Flush()

	checkBalanced(t, tr.Events())
	if got := tr.Counter("queries"); got != 8*50 {
		t.Fatalf("queries = %d, want %d", got, 8*50)
	}
}

func TestJSONSnapshotShape(t *testing.T) {
	tr := New()
	w := tr.Worker(0)
	w.Begin("check", "check")
	w.End()
	w.Add("solver_valid_queries", 5)
	w.Flush()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("WriteJSON output does not round-trip: %v", err)
	}
	if len(snap.Events) != 2 || snap.Counters["solver_valid_queries"] != 5 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestTextSnapshot(t *testing.T) {
	tr := New()
	w := tr.Worker(0)
	w.Begin("phase", "global")
	w.End()
	w.Add("b_counter", 2)
	w.Add("a_counter", 1)
	w.Flush()

	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ia, ib := strings.Index(out, "mcsafe_a_counter 1"), strings.Index(out, "mcsafe_b_counter 2")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("counters missing or unsorted:\n%s", out)
	}
	if !strings.Contains(out, `mcsafe_spans_total{kind="phase"} 1`) {
		t.Fatalf("span aggregate missing:\n%s", out)
	}
}

// TestSpanLimitBoundsRetention: a span limit caps the retained spans (a
// long-running daemon's memory) while counters and the WriteText span
// aggregates keep counting every span ever merged.
func TestSpanLimitBoundsRetention(t *testing.T) {
	tr := New()
	tr.SetSpanLimit(10)
	const total = 100
	for i := 0; i < total; i++ {
		w := tr.Worker(0)
		w.Begin("request", "/v1/check")
		w.Add("server_requests", 1)
		w.End()
		w.Flush()
	}
	if got := len(tr.Spans()); got != 10 {
		t.Fatalf("retained %d spans, want 10", got)
	}
	if got := tr.Counter("server_requests"); got != total {
		t.Fatalf("server_requests = %d, want %d", got, total)
	}
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `mcsafe_spans_total{kind="request"} 100`
	if !strings.Contains(out, want) {
		t.Fatalf("span aggregate does not cover dropped spans:\nwant %s\n%s", want, out)
	}
	// The retained tail is the most recent spans: IDs are monotone, so
	// the smallest retained ID must be from the last 10 merges.
	spans := tr.Spans()
	if spans[0].ID <= SpanID(total-10) {
		t.Fatalf("oldest retained span ID %d; dropped spans were not the oldest", spans[0].ID)
	}
	// Lowering the limit after the fact prunes immediately.
	tr.SetSpanLimit(3)
	if got := len(tr.Spans()); got != 3 {
		t.Fatalf("retained %d spans after re-limit, want 3", got)
	}
	// And clearing it restores unlimited growth.
	tr.SetSpanLimit(0)
	w := tr.Worker(0)
	for i := 0; i < 20; i++ {
		w.Begin("request", "/v1/check")
		w.End()
	}
	w.Flush()
	if got := len(tr.Spans()); got != 23 {
		t.Fatalf("retained %d spans with limit cleared, want 23", got)
	}
}

// TestSpanLimitNewestOnly: between compactions the trace holds spans it
// has dropped; every reader still sees exactly the newest n, and a
// raised or cleared limit does not bring dropped spans back.
func TestSpanLimitNewestOnly(t *testing.T) {
	tr := New()
	tr.SetSpanLimit(4)
	var ids []SpanID
	for i := 0; i < 6; i++ {
		w := tr.Worker(0)
		ids = append(ids, w.Begin("request", "/v1/check"))
		w.End()
		w.Flush()
	}
	newest := func(what string) {
		t.Helper()
		var got []SpanID
		for _, s := range tr.Spans() {
			got = append(got, s.ID)
		}
		if fmt.Sprint(got) != fmt.Sprint(ids[2:]) {
			t.Errorf("%s: retained %v, want %v", what, got, ids[2:])
		}
		if n := len(tr.Events()); n != 8 {
			t.Errorf("%s: %d events, want 8", what, n)
		}
		if n := len(tr.Snapshot().Events); n != 8 {
			t.Errorf("%s: snapshot has %d events, want 8", what, n)
		}
		for i, id := range ids {
			if _, ok := tr.SpanByID(id); ok != (i >= 2) {
				t.Errorf("%s: SpanByID(%d) found = %v", what, id, ok)
			}
		}
	}
	newest("at the limit")
	tr.SetSpanLimit(10)
	newest("limit raised")
	tr.SetSpanLimit(0)
	newest("limit cleared")
}

// BenchmarkFlushAtSpanLimit: a one-span Flush into a trace that already
// retains its limit of spans, the steady state of a long-running
// mcsafed (-trace-spans 4096).
func BenchmarkFlushAtSpanLimit(b *testing.B) {
	for _, limit := range []int{64, 4096} {
		b.Run(fmt.Sprint(limit), func(b *testing.B) {
			tr := New()
			tr.SetSpanLimit(limit)
			w := tr.Worker(0)
			for i := 0; i < limit; i++ {
				w.Begin("request", "/v1/check")
				w.End()
			}
			w.Flush()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Begin("request", "/v1/check")
				w.End()
				w.Flush()
			}
		})
	}
}

func TestTruncateFormula(t *testing.T) {
	if got := TruncateFormula("short"); got != "short" {
		t.Fatal(got)
	}
	long := strings.Repeat("x", 500)
	if got := TruncateFormula(long); len(got) >= 500 {
		t.Fatalf("not truncated: %d bytes", len(got))
	}
}
