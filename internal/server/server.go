// Package server is mcsafed's HTTP/JSON checking service: a thin,
// long-running wrapper around mcsafe.Checker that serves the v1 API
// (api.go), keyed by content address. Every submission is fingerprinted
// — (program fingerprint, policy hash, checker version) — and looked up
// in a persistent two-layer verdict store (internal/vstore) before any
// analysis runs, so the common case under heavy traffic, a repeat
// submission, is answered from memory or disk in microseconds with a
// Result byte-identical to the cold check that populated the store.
//
// Admission control reuses the checker's resource governor: each
// request's Budget is clamped to server-wide maxima, and a bounded
// in-flight semaphore keeps concurrent solver work at a configured
// level (store hits bypass admission — they do no solver work). Under
// sustained overload the semaphore sheds instead of queueing without
// bound: a request that cannot be admitted within AdmissionWait is
// refused with 503 and a Retry-After hint the client's backoff honors.
// Observability flows through the existing obs layer: one span per
// request plus server_/store counters on /v1/metrics.
//
// The store is best-effort by construction: a circuit breaker watches
// for store I/O failures and, after StoreFailThreshold consecutive
// errors, trips the server into a degraded cache-bypass mode — checking
// continues at full fidelity, caching stops. After StoreRecovery the
// breaker lets one request through as a probe; its success restores
// caching. /v1/healthz deepens this with a real write-probe of the
// store directory, so an unwritable disk is visible before the first
// failed Put.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcsafe"
	"mcsafe/internal/obs"
	"mcsafe/internal/vstore"
)

// Config assembles a Server.
type Config struct {
	// Store is the verdict store; nil disables caching (every
	// submission is checked).
	Store *vstore.Store
	// Parallelism is each check's Phase 5 worker count (0 =
	// GOMAXPROCS). With many concurrent requests, 1 (one worker per
	// check) usually maximizes throughput.
	Parallelism int
	// DefaultBudget applies to requests that carry no Budget; MaxBudget
	// caps every request's envelope field-by-field (a zero max field is
	// uncapped). Both zero: checks run ungoverned.
	DefaultBudget mcsafe.Budget
	MaxBudget     mcsafe.Budget
	// MaxInFlight bounds concurrently *checking* requests (store hits
	// are not counted). 0 means GOMAXPROCS.
	MaxInFlight int
	// MaxBatchItems bounds one batch call (default 64).
	MaxBatchItems int
	// MaxBodyBytes bounds a request body (default 16 MiB).
	MaxBodyBytes int64
	// AdmissionWait bounds how long a request may queue for an
	// admission slot before being shed with 503 + Retry-After.
	// 0 (the default) queues for as long as the client waits.
	AdmissionWait time.Duration
	// StoreFailThreshold is how many consecutive store I/O failures
	// trip the breaker into degraded cache-bypass mode (default 3).
	StoreFailThreshold int
	// StoreRecovery is how long the breaker stays open before letting
	// a half-open probe through (default 15s).
	StoreRecovery time.Duration
	// Trace receives request spans, check spans, and counters; nil
	// runs unobserved (metrics then expose only store gauges).
	Trace *obs.Trace
}

// Server implements the v1 API over one Checker configuration.
type Server struct {
	cfg      Config
	sem      chan struct{}
	inFlight atomic.Int64
	draining atomic.Bool
	brk      *breaker

	mu     sync.Mutex
	closed bool
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = 64
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	return &Server{
		cfg: cfg,
		sem: make(chan struct{}, cfg.MaxInFlight),
		brk: newBreaker(cfg.StoreFailThreshold, cfg.StoreRecovery),
	}
}

// Degraded reports whether the store breaker is tripped (the server is
// serving in cache-bypass mode).
func (s *Server) Degraded() bool { return s.brk.degraded() }

// Handler returns the v1 API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/check", s.handleCheck)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return mux
}

// Drain marks the server draining: new submissions are refused with 503
// while in-flight checks finish. The caller (cmd/mcsafed) pairs it with
// http.Server.Shutdown, which waits for in-flight requests.
func (s *Server) Drain() { s.draining.Store(true) }

// Close closes the verdict store. Call after the HTTP server has shut
// down.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.cfg.Store != nil {
		return s.cfg.Store.Close()
	}
	return nil
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfDraining(w) {
		return
	}
	worker := s.cfg.Trace.Worker(0)
	worker.Begin("request", "/v1/check")
	worker.Add("server_requests", 1)
	var req CheckRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		worker.Add("server_bad_requests", 1)
		worker.End("status", "400")
		worker.Flush()
		return
	}
	resp, status := s.process(r.Context(), worker, &req)
	worker.End("status", fmt.Sprint(status), "cached", fmt.Sprint(resp.Cached))
	worker.Flush()
	if status == http.StatusServiceUnavailable {
		// The refusal is load, not failure: tell the client when to
		// come back (its retry loop honors this).
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfDraining(w) {
		return
	}
	worker := s.cfg.Trace.Worker(0)
	worker.Begin("request", "/v1/batch")
	worker.Add("server_requests", 1)
	var req BatchRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		worker.Add("server_bad_requests", 1)
		worker.End("status", "400")
		worker.Flush()
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		worker.End("status", "400")
		worker.Flush()
		httpError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Items), s.cfg.MaxBatchItems))
		return
	}
	worker.Add("server_batch_items", int64(len(req.Items)))
	// Items are independent; the in-flight semaphore inside process
	// bounds actual solver concurrency, so the fan-out here is free.
	resp := BatchResponse{Items: make([]CheckResponse, len(req.Items))}
	var wg sync.WaitGroup
	for i := range req.Items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each item records through its own fork: obs Workers are
			// single-goroutine by contract.
			iw := worker.Fork()
			resp.Items[i], _ = s.process(r.Context(), iw, &req.Items[i])
			iw.Flush()
		}(i)
	}
	wg.Wait()
	worker.End("status", "200", "items", fmt.Sprint(len(req.Items)))
	worker.Flush()
	writeJSON(w, http.StatusOK, resp)
}

// process answers one submission: fingerprint, store lookup, and — on a
// miss — an admitted, budget-governed check whose wire encoding is
// stored for the next submission of the same content. Returns the
// response and its HTTP status.
func (s *Server) process(ctx context.Context, worker *obs.Worker, req *CheckRequest) (CheckResponse, int) {
	resp := CheckResponse{Checker: mcsafe.CheckerVersion}
	arch := req.Arch
	if arch == "" {
		arch = mcsafe.DefaultArch
	}
	spec, err := mcsafe.ParseSpecArch(req.Spec, arch)
	if err != nil {
		resp.Error = fmt.Sprintf("spec: %v", err)
		worker.Add("server_errors", 1)
		return resp, http.StatusBadRequest
	}
	var prog *mcsafe.Program
	switch {
	case req.Asm != "" && len(req.Words) > 0:
		resp.Error = "program: supply asm or words, not both"
	case req.Asm != "":
		prog, err = mcsafe.AssembleArch(arch, req.Asm, spec, req.Entry)
	case len(req.Words) > 0:
		prog, err = mcsafe.FromWordsArch(arch, req.Words, req.Base, req.Symbols, req.DataSyms)
	default:
		resp.Error = "program: empty submission (need asm or words)"
	}
	if err != nil {
		resp.Error = fmt.Sprintf("program: %v", err)
	}
	if resp.Error != "" {
		worker.Add("server_errors", 1)
		return resp, http.StatusBadRequest
	}

	key := vstore.Key{
		Program: prog.Fingerprint().String(),
		Policy:  spec.Hash().String(),
		Checker: mcsafe.CheckerVersion,
	}
	resp.Program = key.Program
	resp.Policy = key.Policy

	// The breaker decides whether this request touches the store at
	// all: tripped means degraded cache-bypass mode — checking is
	// unaffected, caching pauses until a recovery probe succeeds.
	useStore := s.cfg.Store != nil && !req.NoCache
	probe := false
	if useStore {
		var allowed bool
		allowed, probe = s.brk.allow()
		if !allowed {
			worker.Add("server_degraded_requests", 1)
			useStore = false
		} else if probe {
			worker.Add("server_breaker_probes", 1)
		}
	}
	if useStore {
		verdict, ok, err := s.cfg.Store.Get(key)
		switch {
		case err != nil:
			// The store's disk is failing. Record it, and leave the
			// store alone for the rest of this request.
			s.brk.failure()
			worker.Add("server_store_errors", 1)
			useStore = false
		case ok:
			s.brk.success()
			worker.Add("server_store_hits", 1)
			resp.Cached = true
			resp.Result = json.RawMessage(verdict)
			return resp, http.StatusOK
		default:
			// A miss is neutral for the breaker: no record I/O happened,
			// so it neither resets a failure streak (a write-only disk
			// fault must still trip) nor resolves a half-open probe. A
			// probe that misses resolves against a real write-probe
			// instead, so recovery never depends on drawing a warm hit.
			worker.Add("server_store_misses", 1)
			if probe {
				if perr := s.cfg.Store.Probe(); perr != nil {
					s.brk.failure()
					worker.Add("server_store_errors", 1)
					useStore = false
				} else {
					s.brk.success()
				}
			}
		}
	}

	// Admission: a bounded number of checks run concurrently; the rest
	// queue here until a slot frees, the client gives up, or (with
	// AdmissionWait set) the shedding deadline passes — overload then
	// answers 503 + Retry-After instead of queueing without bound.
	var shed <-chan time.Time
	if s.cfg.AdmissionWait > 0 {
		timer := time.NewTimer(s.cfg.AdmissionWait)
		defer timer.Stop()
		shed = timer.C
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		resp.Error = "admission: " + ctx.Err().Error()
		worker.Add("server_admission_timeouts", 1)
		return resp, http.StatusServiceUnavailable
	case <-shed:
		resp.Error = "admission: server overloaded, retry later"
		worker.Add("server_admission_shed", 1)
		return resp, http.StatusServiceUnavailable
	}
	s.inFlight.Add(1)
	defer func() {
		s.inFlight.Add(-1)
		<-s.sem
	}()

	checker := mcsafe.New(
		mcsafe.WithParallelism(s.cfg.Parallelism),
		mcsafe.WithObserver(s.cfg.Trace),
		mcsafe.WithBudget(s.effectiveBudget(req.Budget)),
	)
	worker.Add("server_checks", 1)
	res, err := checker.Check(ctx, prog, spec)
	if err != nil {
		worker.Add("server_errors", 1)
		resp.Error = err.Error()
		if ctx.Err() != nil {
			return resp, http.StatusServiceUnavailable
		}
		return resp, http.StatusInternalServerError
	}
	wire, err := res.MarshalWire()
	if err != nil {
		worker.Add("server_errors", 1)
		resp.Error = err.Error()
		return resp, http.StatusInternalServerError
	}
	resp.Result = json.RawMessage(wire)
	if useStore && cacheable(res) {
		if err := s.cfg.Store.Put(key, wire); err == nil {
			s.brk.success()
			worker.Add("server_store_puts", 1)
		} else {
			// Caching is best-effort: the verdict still goes out, the
			// breaker counts the failure.
			s.brk.failure()
			worker.Add("server_store_errors", 1)
		}
	}
	return resp, http.StatusOK
}

// cacheable rejects budget-dependent verdicts: a condition left
// unproven for lack of resources (CodeResource) reflects this request's
// envelope, not the program, and must never be served to a submitter
// with a different budget.
func cacheable(res *mcsafe.Result) bool {
	for _, v := range res.Violations {
		if v.Code == mcsafe.CodeResource {
			return false
		}
	}
	return true
}

// effectiveBudget merges the request budget over the server default and
// clamps each field to the server maximum (a zero request field
// inherits the default; a zero max leaves the field uncapped).
func (s *Server) effectiveBudget(req *BudgetRequest) mcsafe.Budget {
	b := s.cfg.DefaultBudget
	if req != nil {
		if req.DeadlineMS > 0 {
			b.Deadline = time.Duration(req.DeadlineMS) * time.Millisecond
		}
		if req.SolverSteps > 0 {
			b.SolverSteps = req.SolverSteps
		}
		if req.CondTimeoutMS > 0 {
			b.CondTimeout = time.Duration(req.CondTimeoutMS) * time.Millisecond
		}
	}
	max := s.cfg.MaxBudget
	if max.Deadline > 0 && (b.Deadline == 0 || b.Deadline > max.Deadline) {
		b.Deadline = max.Deadline
	}
	if max.SolverSteps > 0 && (b.SolverSteps == 0 || b.SolverSteps > max.SolverSteps) {
		b.SolverSteps = max.SolverSteps
	}
	if max.CondTimeout > 0 && (b.CondTimeout == 0 || b.CondTimeout > max.CondTimeout) {
		b.CondTimeout = max.CondTimeout
	}
	return b
}

// handleHealthz is a deep health check: besides liveness it runs a real
// write-probe against the verdict store (CreateTemp+write+fsync), so an
// unwritable store directory reports "store": "degraded" before the
// first Put ever fails. "ok" stays true as long as the service can
// check — a degraded store only means caching is best-effort. The probe
// outcome feeds the breaker, so a healed disk observed here restores
// caching without waiting for a request-path probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"ok":        true,
		"draining":  s.draining.Load(),
		"in_flight": s.inFlight.Load(),
		"store":     "none",
	}
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Probe(); err != nil {
			s.brk.failure()
			resp["store"] = "degraded"
			resp["store_error"] = err.Error()
		} else {
			s.brk.success()
			resp["store"] = "ok"
		}
		st := s.cfg.Store.Stats()
		resp["shards"] = st.Shards
		resp["records"] = st.DiskEntries
		resp["quarantined"] = st.Quarantined
	}
	resp["degraded"] = s.brk.degraded()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, VersionResponse{
		Checker: mcsafe.CheckerVersion,
		Schema:  mcsafe.SchemaVersion,
	})
}

// handleMetrics renders the Prometheus-style text snapshot: the trace's
// counters and span aggregates (checker effort + server_ counters),
// the breaker's degraded-mode gauges, then the store's counters and
// gauges as mcsafe_store_* lines.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.cfg.Trace != nil {
		if err := s.cfg.Trace.WriteText(w); err != nil {
			return
		}
	}
	if s.cfg.Store == nil {
		return
	}
	degraded := int64(0)
	if s.brk.degraded() {
		degraded = 1
	}
	_, trips := s.brk.snapshot()
	st := s.cfg.Store.Stats()
	lines := map[string]int64{
		"server_degraded":      degraded,
		"server_breaker_trips": trips,
		"store_mem_hits":       st.MemHits,
		"store_disk_hits":      st.DiskHits,
		"store_hits":           st.MemHits + st.DiskHits,
		"store_misses":         st.Misses,
		"store_puts":           st.Puts,
		"store_mem_evictions":  st.MemEvictions,
		"store_disk_evictions": st.DiskEvictions,
		"store_rejects":        st.Rejects,
		"store_corrupt":        st.Corrupt,
		"store_quarantined":    st.Quarantined,
		"store_read_errors":    st.ReadErrors,
		"store_put_errors":     st.PutErrors,
		"store_shards":         int64(st.Shards),
		"store_mem_bytes":      st.MemBytes,
		"store_disk_bytes":     st.DiskBytes,
		"store_mem_entries":    int64(st.MemEntries),
		"store_disk_entries":   int64(st.DiskEntries),
	}
	names := make([]string, 0, len(lines))
	for name := range lines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "mcsafe_%s %d\n", name, lines[name])
	}
}

func (s *Server) refuseIfDraining(w http.ResponseWriter) bool {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "draining")
		return true
	}
	return false
}

// decodeBody decodes a size-limited JSON body; unknown request fields
// are tolerated (the additive-evolution rule, in both directions).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	if err := dec.Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return err
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": strings.TrimSpace(msg)})
}
