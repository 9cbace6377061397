// Package obs is the checker's observability layer: hierarchical spans
// with monotonic timings (check → phase → condition chunk → prover
// query) and named counters, collected into a Trace and rendered by
// pluggable sinks — a JSON event stream and a Prometheus-style text
// snapshot.
//
// The layer is built for two regimes:
//
//   - Disabled (the default): every entry point is a method on a
//     possibly-nil receiver that returns immediately, so an
//     uninstrumented check pays one nil compare per call site and
//     allocates nothing. The bench regression gate holds this to the
//     existing threshold.
//   - Enabled: recording is race-free at any parallelism. Each
//     goroutine records through its own Worker (single-owner buffers,
//     the same sharding discipline as the Phase 5 prover pool) and
//     merges into the Trace under one mutex when it finishes. Span IDs
//     and event sequence numbers come from shared atomic counters, so
//     the merged event stream has a total order consistent with every
//     per-goroutine order and with the happens-before edges between
//     them — which is what keeps the stream balanced. At
//     Parallelism 1 recording is single-threaded and therefore fully
//     deterministic (IDs, order, and counter values).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies a span within one Trace; 0 means "no span".
type SpanID int64

// Span is one completed interval of work. Times are monotonic
// nanosecond offsets from the trace's start.
type Span struct {
	ID     SpanID            `json:"id"`
	Parent SpanID            `json:"parent,omitempty"`
	Kind   string            `json:"kind"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`

	startSeq, endSeq int64
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Event is one entry of the rendered event stream: a span begin
// ("b", carrying kind/name/parent) or a span end ("e", carrying the
// span's attributes). Seq totally orders the stream; at Parallelism 1
// it is deterministic across runs.
type Event struct {
	Seq    int64             `json:"seq"`
	Ev     string            `json:"ev"` // "b" or "e"
	Span   SpanID            `json:"span"`
	Parent SpanID            `json:"parent,omitempty"`
	Kind   string            `json:"kind,omitempty"`
	Name   string            `json:"name,omitempty"`
	T      int64             `json:"t_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Trace collects the spans and counters of one or more checks. A nil
// *Trace is the no-op observer: every method is safe to call and does
// nothing. A non-nil Trace may be shared by concurrent checks (each
// check records through its own Workers).
type Trace struct {
	start time.Time
	ids   atomic.Int64 // span IDs
	seq   atomic.Int64 // event sequence numbers

	mu       sync.Mutex
	spans    []Span // spans[head:] are retained
	head     int
	maxSpans int                 // > 0: retain only the most recent maxSpans spans
	aggs     map[string]*spanAgg // per-kind totals over ALL merged spans
	counters map[string]int64
}

// spanAgg accumulates one kind's span totals; unlike the spans slice it
// is never pruned, so WriteText stays monotone under a span limit.
type spanAgg struct {
	count int64
	ns    int64
}

// New returns an empty trace whose clock starts now.
func New() *Trace {
	return &Trace{
		start:    time.Now(),
		aggs:     make(map[string]*spanAgg),
		counters: make(map[string]int64),
	}
}

// SetSpanLimit bounds span retention: after each merge only the n most
// recently merged spans are kept (n <= 0 restores unlimited retention,
// the default). Counters and the per-kind aggregates WriteText renders
// keep counting every span ever merged, so a long-running daemon can
// cap its memory without losing metrics; only the replayable event
// stream (Events/Snapshot/WriteJSON) is truncated to the retained tail,
// which may reference parents that have been dropped.
func (t *Trace) SetSpanLimit(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.maxSpans = n
	t.pruneLocked()
	t.mu.Unlock()
}

// pruneLocked drops the oldest retained spans down to the limit. The
// dropped prefix is compacted away only once it is as long as the limit,
// so a merge costs amortized constant time per span instead of a copy
// of the whole retained window. Dropped and vacated slots are zeroed,
// so no slot keeps a dropped span's attributes alive.
func (t *Trace) pruneLocked() {
	if t.maxSpans > 0 && len(t.spans)-t.head > t.maxSpans {
		head := len(t.spans) - t.maxSpans
		clear(t.spans[t.head:head])
		t.head = head
	}
	if t.head > 0 && t.head >= t.maxSpans {
		n := copy(t.spans, t.spans[t.head:])
		clear(t.spans[n:])
		t.spans, t.head = t.spans[:n], 0
	}
}

func (t *Trace) now() int64 { return int64(time.Since(t.start)) }

// Worker returns a single-goroutine recorder whose root spans are
// children of parent (0 for top-level). Returns nil — the no-op
// recorder — when t is nil.
func (t *Trace) Worker(parent SpanID) *Worker {
	if t == nil {
		return nil
	}
	return &Worker{t: t, parent: parent, counters: make(map[string]int64)}
}

// merge absorbs a worker's finished spans and counters.
func (t *Trace) merge(spans []Span, counters map[string]int64) {
	t.mu.Lock()
	for _, s := range spans {
		a := t.aggs[s.Kind]
		if a == nil {
			a = &spanAgg{}
			t.aggs[s.Kind] = a
		}
		a.count++
		a.ns += s.End - s.Start
	}
	t.spans = append(t.spans, spans...)
	t.pruneLocked()
	for k, v := range counters {
		t.counters[k] += v
	}
	t.mu.Unlock()
}

// Counters returns a copy of the merged counters.
func (t *Trace) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counters))
	for k, v := range t.counters {
		out[k] = v
	}
	return out
}

// Counter returns one merged counter (0 when absent).
func (t *Trace) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// Spans returns a copy of the completed spans, sorted by ID.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans[t.head:]...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SpanByID returns the completed span with the given ID.
func (t *Trace) SpanByID(id SpanID) (Span, bool) {
	if t == nil || id == 0 {
		return Span{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans[t.head:] {
		if s.ID == id {
			return s, true
		}
	}
	return Span{}, false
}

// Events renders the completed spans as a begin/end event stream,
// totally ordered by sequence number. Because sequence numbers are
// drawn at record time from one atomic counter, the order is
// consistent with each recording goroutine's program order and with
// the fork/join edges between goroutines, so the stream is balanced:
// every "b" has a matching later "e", and nesting is proper.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	spans := t.Spans()
	out := make([]Event, 0, 2*len(spans))
	for _, s := range spans {
		out = append(out, Event{
			Seq: s.startSeq, Ev: "b", Span: s.ID, Parent: s.Parent,
			Kind: s.Kind, Name: s.Name, T: s.Start,
		})
		out = append(out, Event{Seq: s.endSeq, Ev: "e", Span: s.ID, T: s.End, Attrs: s.Attrs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Snapshot is the JSON shape of a trace: the event stream plus the
// merged counters. The schema is stable: fields are only ever added.
type Snapshot struct {
	Events   []Event          `json:"events"`
	Counters map[string]int64 `json:"counters"`
}

// Snapshot materializes the trace for JSON rendering.
func (t *Trace) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{Counters: map[string]int64{}}
	}
	return Snapshot{Events: t.Events(), Counters: t.Counters()}
}

// WriteJSON writes the trace snapshot — the JSON event-stream sink.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Snapshot())
}

// WriteText writes a Prometheus/expvar-style text snapshot: one line
// per counter plus per-kind span aggregates, in sorted order.
func (t *Trace) WriteText(w io.Writer) error {
	if t == nil {
		return nil
	}
	counters := t.Counters()
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "mcsafe_%s %d\n", k, counters[k]); err != nil {
			return err
		}
	}
	// The aggregates are maintained at merge time — over every span ever
	// merged, not just the retained ones — so this snapshot is O(kinds)
	// and stays monotone under SetSpanLimit.
	byKind := map[string]spanAgg{}
	t.mu.Lock()
	for k, a := range t.aggs {
		byKind[k] = *a
	}
	t.mu.Unlock()
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		if _, err := fmt.Fprintf(w, "mcsafe_spans_total{kind=%q} %d\n", k, byKind[k].count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "mcsafe_span_ns_total{kind=%q} %d\n", k, byKind[k].ns); err != nil {
			return err
		}
	}
	return nil
}

// Worker is a single-goroutine recorder. All methods are nil-safe: a
// nil *Worker is the no-op recorder the uninstrumented path uses, and
// costs one pointer compare per call. A Worker must not be shared
// across goroutines; fork one per goroutine with Fork and call Flush
// when the goroutine's work is done (with every span ended).
type Worker struct {
	t        *Trace
	parent   SpanID
	stack    []Span
	done     []Span
	counters map[string]int64
}

// Trace returns the backing trace (nil for the no-op worker).
func (w *Worker) Trace() *Trace {
	if w == nil {
		return nil
	}
	return w.t
}

// Current returns the innermost open span (or the worker's base
// parent when none is open).
func (w *Worker) Current() SpanID {
	if w == nil {
		return 0
	}
	if n := len(w.stack); n > 0 {
		return w.stack[n-1].ID
	}
	return w.parent
}

// Fork returns a new worker for another goroutine, rooted at this
// worker's current span.
func (w *Worker) Fork() *Worker {
	if w == nil {
		return nil
	}
	return w.t.Worker(w.Current())
}

// Begin opens a span nested under the current one.
func (w *Worker) Begin(kind, name string) SpanID {
	if w == nil {
		return 0
	}
	id := SpanID(w.t.ids.Add(1))
	w.stack = append(w.stack, Span{
		ID: id, Parent: w.Current(), Kind: kind, Name: name,
		Start: w.t.now(), startSeq: w.t.seq.Add(1),
	})
	return id
}

// End closes the innermost open span. kv are alternating attribute
// key/value pairs attached to the span's end event.
func (w *Worker) End(kv ...string) {
	if w == nil {
		return
	}
	n := len(w.stack) - 1
	if n < 0 {
		return
	}
	sp := w.stack[n]
	w.stack = w.stack[:n]
	sp.End = w.t.now()
	sp.endSeq = w.t.seq.Add(1)
	if len(kv) > 1 {
		sp.Attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			sp.Attrs[kv[i]] = kv[i+1]
		}
	}
	w.done = append(w.done, sp)
}

// EndAll closes every open span, innermost first, attaching the given
// attributes to each end event. It is the panic-recovery balancer: a
// proof attempt that panics mid-span would otherwise leave the event
// stream unbalanced, so containment sites call EndAll before Flush.
func (w *Worker) EndAll(kv ...string) {
	if w == nil {
		return
	}
	for len(w.stack) > 0 {
		w.End(kv...)
	}
}

// Add bumps a named counter in the worker's private tally.
func (w *Worker) Add(name string, n int64) {
	if w == nil || n == 0 {
		return
	}
	w.counters[name] += n
}

// Flush merges the worker's finished spans and counters into the
// trace. Open spans are not flushed; end them first. The worker stays
// usable after a flush.
func (w *Worker) Flush() {
	if w == nil {
		return
	}
	if len(w.done) == 0 && len(w.counters) == 0 {
		return
	}
	w.t.merge(w.done, w.counters)
	w.done = nil
	for k := range w.counters {
		delete(w.counters, k)
	}
}

// TruncateFormula bounds attribute payloads: span attributes carry
// formula texts, which the DNF-heavy programs can grow without bound.
func TruncateFormula(s string) string {
	const max = 200
	if len(s) <= max {
		return s
	}
	return s[:max] + "…"
}
