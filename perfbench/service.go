package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcsafe"
	"mcsafe/internal/gen"
	"mcsafe/internal/isa"
	"mcsafe/internal/obs"
	"mcsafe/internal/policy"
	"mcsafe/internal/progs"
	"mcsafe/internal/server"
	"mcsafe/internal/vstore"
)

// The service workload's shape. One request in each block of coldEvery
// is cold, at a seeded position: a ~3% cold share keeps warm requests
// most of the server's time and still gives well over 100 cold samples
// a run. The run stops early if the cold pool runs out.
const (
	coldEvery       = 32
	coldPool        = 6144
	serviceGen      = 12  // gen fixtures in the warm working set
	serviceGenSize  = 100 // instructions per service fixture
	daemonSpanLimit = 4096
	serviceSetups   = 3 // set-up repetitions for setup_s's median
)

// servicePrograms are the paper programs that check in under ~50 ms.
var servicePrograms = []string{"Sum", "PagingPolicy", "StartTimer", "Hash", "BubbleSort", "StopTimer", "Btree", "jPVM"}

// serviceKinds leaves out gen.Align: refuting its planted violation
// takes ~0.5 s at any size (gen-scale measures that), which would make
// one cold request in six a different regime from the rest.
var serviceKinds = []gen.Kind{gen.Safe, gen.OOB, gen.Uninit, gen.NullPtr, gen.Stack}

// serviceClients is the number of closed-loop callers: two, but never
// more than the host has CPUs.
func serviceClients() int { return min(2, runtime.NumCPU()) }

// entry is one submission: its request body and known answer.
type entry struct {
	name string
	body []byte
	want answer
	key  string // program fingerprint and policy hash
	// insns is the program's instruction count; build assembles the
	// internal form the traced replay's checker layers are given (nil
	// for rv32i_sum, which is never submitted cold after set-up).
	insns int
	build func() (*isa.Program, *policy.Spec, error)
	// ref is, for a working-set entry, the Result bytes its cold
	// submission returned in set-up; warm responses must equal them.
	ref []byte
}

type serviceInputs struct {
	warm, cold []*entry
	// schedule[i] is request i's entry: warm[s] for s >= 0, otherwise
	// cold[-s-1].
	schedule []int32
}

func (in *serviceInputs) entry(i int) (e *entry, cold bool) {
	s := in.schedule[i]
	if s < 0 {
		return in.cold[-s-1], true
	}
	return in.warm[s], false
}

// newEntry parses and assembles a submission, as the server will, to
// learn its content address, and encodes its request body.
func newEntry(name string, req server.CheckRequest, want answer, build func() (*isa.Program, *policy.Spec, error)) (*entry, error) {
	arch := req.Arch
	if arch == "" {
		arch = mcsafe.DefaultArch
	}
	spec, err := mcsafe.ParseSpecArch(req.Spec, arch)
	if err != nil {
		return nil, fmt.Errorf("%s: spec: %v", name, err)
	}
	prog, err := mcsafe.AssembleArch(arch, req.Asm, spec, req.Entry)
	if err != nil {
		return nil, fmt.Errorf("%s: asm: %v", name, err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &entry{
		name: name, body: body, want: want, key: prog.Fingerprint().String() + "/" + spec.Hash().String(),
		insns: len(prog.Words()), build: build,
	}, nil
}

// serviceInputsFor draws the working set, the cold pool and the
// schedule from the seed. Every entry has a distinct content address,
// so a cold request can never hit the store.
func serviceInputsFor(seed int64) (*serviceInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &serviceInputs{}
	seen := map[string]bool{}
	add := func(list *[]*entry, e *entry) bool {
		if seen[e.key] {
			return false
		}
		seen[e.key] = true
		*list = append(*list, e)
		return true
	}
	for _, name := range servicePrograms {
		b := progs.Get(name)
		e, err := newEntry(name, server.CheckRequest{Asm: b.Source, Spec: b.Spec, Entry: b.Entry}, answer{b.WantSafe, codeSet(b.WantCodes)}, b.Build)
		if err != nil {
			return nil, err
		}
		add(&in.warm, e)
	}
	asm, err := os.ReadFile("testdata/rv32i_sum.s")
	if err != nil {
		return nil, err
	}
	spec, err := os.ReadFile("testdata/rv32i_sum.spec")
	if err != nil {
		return nil, err
	}
	e, err := newEntry("rv32i_sum", server.CheckRequest{Arch: "rv32i", Asm: string(asm), Spec: string(spec), Entry: "sum"}, answer{safe: true}, nil)
	if err != nil {
		return nil, err
	}
	add(&in.warm, e)
	draw := func(list *[]*entry, kind gen.Kind) error {
		for {
			f := gen.Generate(gen.Config{Seed: rng.Int63n(1 << 31), Size: serviceGenSize, Kind: kind})
			e, err := newEntry(f.Name, server.CheckRequest{Asm: f.Asm, Spec: f.Spec, Entry: f.Entry}, fixtureAnswer(f), f.Build)
			if err != nil {
				return err
			}
			if add(list, e) {
				return nil
			}
		}
	}
	for i := range serviceGen {
		if err := draw(&in.warm, serviceKinds[i%len(serviceKinds)]); err != nil {
			return nil, err
		}
	}
	for i := range coldPool {
		if err := draw(&in.cold, serviceKinds[i%len(serviceKinds)]); err != nil {
			return nil, err
		}
	}
	for b := range coldPool {
		at := rng.Intn(coldEvery)
		for j := range coldEvery {
			if j == at {
				in.schedule = append(in.schedule, int32(-b-1))
			} else {
				in.schedule = append(in.schedule, int32(rng.Intn(len(in.warm))))
			}
		}
	}
	return in, nil
}

// digest covers every entry's content address, in order, and the
// schedule.
func (in *serviceInputs) digest() string {
	var parts []string
	for _, e := range in.warm {
		parts = append(parts, e.key)
	}
	for _, e := range in.cold {
		parts = append(parts, e.key)
	}
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, in.schedule)
	return digest(append(parts, hex.EncodeToString(h.Sum(nil))))
}

// verifyWire decodes a Result wire encoding and compares its verdict
// with the known answer.
func verifyWire(e *entry, wire []byte) error {
	w, err := mcsafe.UnmarshalWire(wire)
	if err != nil {
		return fmt.Errorf("%s: %v", e.name, err)
	}
	return e.want.verify(e.name, w.Safe, violationCodes(w.Violations))
}

// check verifies request i's response against the schedule and the
// known answers.
func (in *serviceInputs) check(i int, resp server.CheckResponse, status int) error {
	e, cold := in.entry(i)
	if status != http.StatusOK || resp.Error != "" {
		return fmt.Errorf("request %d (%s): status %d: %s", i, e.name, status, resp.Error)
	}
	if resp.Cached == cold {
		return fmt.Errorf("request %d (%s): cached=%v, but the schedule says cold=%v", i, e.name, resp.Cached, cold)
	}
	if cold {
		return verifyWire(e, resp.Result)
	}
	if !bytes.Equal(resp.Result, e.ref) {
		return fmt.Errorf("request %d (%s): warm response differs from its cold submission", i, e.name)
	}
	return nil
}

// rig is a running service: an in-process mcsafed handler on a
// loopback listener, configured as cmd/mcsafed runs it, over a
// durable verdict store in a fresh directory.
type rig struct {
	in     *serviceInputs
	dir    string
	store  *vstore.Store
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// startRig starts the service and submits the working set once; each
// submission is a cold check whose Result later warm requests must
// reproduce byte for byte.
func startRig(r *run, in *serviceInputs) (*rig, error) {
	dir, err := os.MkdirTemp(r.work, "vstore-")
	if err != nil {
		return nil, err
	}
	st, err := vstore.Open(dir, vstore.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	trace := obs.New()
	trace.SetSpanLimit(daemonSpanLimit)
	srv := server.New(server.Config{Store: st, Parallelism: 1, Trace: trace})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	g := &rig{
		in: in, dir: dir, store: st, srv: srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients(), DisableCompression: true}},
	}
	go func() { g.served <- g.hs.Serve(ln) }()
	for _, e := range in.warm {
		resp, status, _, err := g.post(e.body)
		if err == nil && (status != http.StatusOK || resp.Error != "" || resp.Cached) {
			err = fmt.Errorf("status %d, cached=%v: %s", status, resp.Cached, resp.Error)
		}
		if err == nil {
			err = verifyWire(e, resp.Result)
		}
		if err != nil {
			g.stop()
			return nil, fmt.Errorf("submitting the working set: %s: %v", e.name, err)
		}
		if w, _ := mcsafe.UnmarshalWire(resp.Result); w.Stats.Instructions != e.insns {
			g.stop()
			return nil, fmt.Errorf("%s: the checker counted %d instructions, the assembler %d", e.name, w.Stats.Instructions, e.insns)
		}
		e.ref = resp.Result
	}
	return g, nil
}

// stop shuts the server down, waits for it, closes the store and
// removes its directory.
func (g *rig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := g.hs.Shutdown(ctx)
	<-g.served
	g.client.CloseIdleConnections()
	if cerr := g.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(g.dir); err == nil {
		err = rerr
	}
	return err
}

// post submits one body and returns the decoded response and the time
// from sending the request to reading the whole response.
func (g *rig) post(body []byte) (server.CheckResponse, int, time.Duration, error) {
	var resp server.CheckResponse
	t0 := time.Now()
	hr, err := g.client.Post(g.url+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		return resp, 0, time.Since(t0), err
	}
	data, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return resp, hr.StatusCode, d, err
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return resp, hr.StatusCode, d, fmt.Errorf("response: %v", err)
	}
	return resp, hr.StatusCode, d, nil
}

// version is a GET /v1/version round trip: HTTP, the mux and JSON with
// no checking work behind them.
func (g *rig) version() error {
	hr, err := g.client.Get(g.url + "/v1/version")
	if err != nil {
		return err
	}
	data, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil {
		return err
	}
	var v server.VersionResponse
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	if hr.StatusCode != http.StatusOK || v.Checker != mcsafe.CheckerVersion {
		return fmt.Errorf("version: status %d, checker %q", hr.StatusCode, v.Checker)
	}
	return nil
}

// counters scrapes the mcsafe_* counters from /v1/metrics.
func (g *rig) counters() (map[string]int64, error) {
	hr, err := g.client.Get(g.url + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	data, err := io.ReadAll(hr.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || !strings.HasPrefix(f[0], "mcsafe_") {
			continue
		}
		if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			out[strings.TrimPrefix(f[0], "mcsafe_")] = v
		}
	}
	return out, nil
}

// closedLoop runs op on request indexes 0, 1, ... from callers
// goroutines, each starting its next request only when its last one
// has completed, until the budget is spent or the schedule ends. A
// caller checks the clock before claiming an index, so the requests
// run are exactly the first done of the schedule.
func closedLoop(callers, n int, budget time.Duration, op func(caller, i int) (time.Duration, error)) (lat []time.Duration, errs []error, done int, elapsed time.Duration) {
	lat = make([]time.Duration, n)
	errs = make([]error, n)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				lat[i], errs[i] = op(c, i)
			}
		}()
	}
	wg.Wait()
	return lat, errs, min(int(next.Load()), n), time.Since(start)
}

// scheduledWarm counts the warm requests among the first n.
func (in *serviceInputs) scheduledWarm(n int) int {
	warm := 0
	for _, s := range in.schedule[:n] {
		if s >= 0 {
			warm++
		}
	}
	return warm
}

// storeCounters are the server counters the service workload reports.
var storeCounters = []string{"server_store_hits", "server_store_misses", "server_store_puts", "server_checks", "server_admission_shed", "server_store_errors"}

// loadResult is what one closed-loop run over HTTP measured.
type loadResult struct {
	warm, cold []float64   // latencies in ms
	byEntry    [][]float64 // warm latencies in ms by working-set entry
	coldInsns  int         // instructions in the cold requests' programs
	done       int         // requests completed: the schedule's first done
	elapsed    time.Duration
	counters   map[string]int64 // increments of storeCounters
}

// load drives the closed loop over HTTP for budget and verifies every
// response, and that the store's hits and misses follow the schedule.
func (g *rig) load(r *run, budget time.Duration) (loadResult, error) {
	res := loadResult{byEntry: make([][]float64, len(g.in.warm))}
	before, err := g.counters()
	if err != nil {
		return res, err
	}
	lat, errs, done, elapsed := closedLoop(serviceClients(), len(g.in.schedule), budget, func(_, i int) (time.Duration, error) {
		e, _ := g.in.entry(i)
		resp, status, d, err := g.post(e.body)
		if err != nil {
			return d, err
		}
		return d, g.in.check(i, resp, status)
	})
	after, err := g.counters()
	if err != nil {
		return res, err
	}
	res.done, res.elapsed = done, elapsed
	for i := range done {
		r.res.Attempted++
		if errs[i] != nil {
			r.fail("%v", errs[i])
		}
		e, cold := g.in.entry(i)
		if cold {
			res.coldInsns += e.insns
			res.cold = append(res.cold, ms(lat[i]))
		} else {
			s := g.in.schedule[i]
			res.byEntry[s] = append(res.byEntry[s], ms(lat[i]))
			res.warm = append(res.warm, ms(lat[i]))
		}
	}
	res.counters = map[string]int64{}
	for _, name := range storeCounters {
		res.counters[name] = after[name] - before[name]
	}
	hits, misses := res.counters["server_store_hits"], res.counters["server_store_misses"]
	if wantWarm := g.in.scheduledWarm(done); hits != int64(wantWarm) || misses != int64(done-wantWarm) {
		r.fail("store hits %d and misses %d differ from the schedule's %d warm and %d cold requests", hits, misses, wantWarm, done-wantWarm)
	}
	fmt.Printf("requests %d (warm %d, cold %d) in %.3fs from %d clients; counters %v\n",
		done, len(res.warm), len(res.cold), elapsed.Seconds(), serviceClients(), res.counters)
	return res, nil
}

// entryMedians are the median latencies of the working-set entries;
// every entry is drawn often enough to have samples in any run.
func entryMedians(byEntry [][]float64) ([]float64, error) {
	meds := make([]float64, len(byEntry))
	for i, xs := range byEntry {
		if len(xs) == 0 {
			return nil, fmt.Errorf("working-set entry %d was never requested", i)
		}
		meds[i] = median(xs)
	}
	return meds, nil
}

func runService(r *run) error {
	setups := serviceSetups
	if r.trace {
		setups = 1
	}
	var in *serviceInputs
	var g *rig
	var secs []float64
	for range setups {
		if g != nil {
			if err := g.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if in, err = serviceInputsFor(r.seed); err != nil {
			return err
		}
		if g, err = startRig(r, in); err != nil {
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	fmt.Printf("inputs service seed=%d warm=%d cold=%d requests=%d digest=%s\n",
		r.seed, len(in.warm), len(in.cold), len(in.schedule), in.digest())

	if r.trace {
		err := replayTraced(r, g)
		if serr := g.stop(); err == nil {
			err = serr
		}
		return err
	}
	res, err := g.load(r, r.seconds)
	if serr := g.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	meds, err := entryMedians(res.byEntry)
	if err != nil {
		return err
	}
	if len(res.cold) == 0 {
		return fmt.Errorf("no cold request completed")
	}
	// insns_per_s as on the checker path: all instructions over the
	// sum of the inputs' median times to a verdict, the inputs being
	// the working-set programs and the cold pool, which counts as one
	// input of its mean size.
	insns := make([]int, len(g.in.warm))
	for i, e := range g.in.warm {
		insns[i] = e.insns
	}
	insns = append(insns, (res.coldInsns+len(res.cold)/2)/len(res.cold))
	fmt.Printf("%-22s %6s %8s %10s\n", "Input", "Insns", "Samples", "Median(ms)")
	for i, e := range g.in.warm {
		fmt.Printf("%-22s %6d %8d %10.4f\n", e.name, e.insns, len(res.byEntry[i]), meds[i])
	}
	fmt.Printf("%-22s %6d %8d %10.4f\n", "cold pool", insns[len(insns)-1], len(res.cold), median(res.cold))
	r.put("setup_s", "s", median(secs))
	r.put("max_rss_mb", "MB", maxRSSMB())
	r.put("check_geomean_ms", "ms", geomean(meds))
	r.put("insns_per_s", "1/s", insnsPerSecond(insns, append(meds, median(res.cold))))

	// The request-level figures, printed beside the metrics: a
	// percentile only when at least ten samples lie beyond it.
	fmt.Printf("req_per_s %.1f", float64(res.done)/res.elapsed.Seconds())
	for _, q := range []struct {
		name string
		xs   []float64
		p    float64
	}{{"warm_p50_ms", res.warm, 50}, {"warm_p99_ms", res.warm, 99}, {"cold_p50_ms", res.cold, 50}, {"cold_p90_ms", res.cold, 90}} {
		if len(q.xs) == 0 {
			continue
		}
		if v, beyond := percentile(q.xs, q.p); beyond >= 10 {
			fmt.Printf(" %s %.4f", q.name, v)
		}
	}
	fmt.Println()
	return nil
}

// serverLayers are the request path's layers beyond tracedLayers: the
// HTTP round trip, the body's decoding and the store. The traced run
// prints them beside the per-layer metrics; the checker path has none
// of them.
var serverLayers = []string{"server.rtt", "server.decode", "vstore.get", "vstore.put"}

// replayTraced is the service's per-layer run. It first holds the
// traced runner to the server's answers: each working-set program it
// can build, checked through tracedCheck, must give the Result its
// set-up submission returned, times aside. It then replays the
// schedule in-process on the started service from as many callers as
// the closed loop uses, answering each request the way server.process
// does with each call timed from outside in its own span.
func replayTraced(r *run, g *rig) error {
	ctx := context.Background()
	tr := obs.New()
	workers := make([]*obs.Worker, serviceClients())
	for c := range workers {
		workers[c] = tr.Worker(0)
	}
	for _, e := range g.in.warm {
		if e.build == nil {
			continue
		}
		prog, spec, err := e.build()
		if err != nil {
			return err
		}
		res, err := tracedCheck(ctx, obs.New().Worker(0), prog, spec, 1)
		if err != nil {
			return fmt.Errorf("%s: traced reference check: %v", e.name, err)
		}
		ref, err := mcsafe.UnmarshalWire(e.ref)
		if err != nil {
			return err
		}
		if timeless(res.wire) != timeless(*ref) {
			return fmt.Errorf("%s: the traced runner's Result differs from the server's", e.name)
		}
	}

	var mu sync.Mutex
	var cs []counts
	rt0 := readRuntime()
	lat, errs, done, elapsed := closedLoop(len(workers), len(g.in.schedule), r.seconds, func(c, i int) (time.Duration, error) {
		t0 := time.Now()
		res, err := g.replay(ctx, workers[c], i)
		if res != nil {
			mu.Lock()
			cs = append(cs, res.counts)
			mu.Unlock()
		}
		return time.Since(t0), err
	})
	rt1 := readRuntime()
	byEntry := make([][]float64, len(g.in.warm))
	for i := range done {
		r.res.Attempted++
		if errs[i] != nil {
			r.fail("replay: %v", errs[i])
		}
		if s := g.in.schedule[i]; s >= 0 {
			byEntry[s] = append(byEntry[s], ms(lat[i]))
		}
	}
	spans := tr.Spans()
	if err := writeSpans(r, "service", spans); err != nil {
		return err
	}

	ops := 0
	var opNS int64
	for _, s := range spans {
		if s.Kind == "op" {
			ops++
			opNS += s.End - s.Start
		}
	}
	if ops == 0 {
		return fmt.Errorf("the traced replay completed no request")
	}
	layerNS := map[string]int64{}
	eachLayer(spans, func(_ *obs.Span, layer string, ns int64) { layerNS[layer] += ns })
	perOp := func(layer string) float64 { return float64(layerNS[layer]) / 1e6 / float64(ops) }
	fmt.Printf("traced replay: %d requests (%d cold) in %.3fs, %.4f ms per request\n", done, len(cs), elapsed.Seconds(), float64(opNS)/1e6/float64(ops))
	for _, layer := range append(append([]string{}, tracedLayers...), serverLayers...) {
		fmt.Printf("  %-20s %9.4f ms/request  %5.1f%%\n", layer, perOp(layer), 100*float64(layerNS[layer])/float64(opNS))
	}
	for _, layer := range tracedLayers {
		r.put(layer+"_ms", "ms", perOp(layer))
	}
	putCounts(r, cs)
	meds, err := entryMedians(byEntry)
	if err != nil {
		return err
	}
	r.put("traced.check_geomean_ms", "ms", geomean(meds))
	r.put("runtime.alloc_mb", "MB", float64(rt1.allocBytes-rt0.allocBytes)/(1<<20)/float64(ops))
	r.put("runtime.gc_cpu_frac", "ratio", rt1.gcShareSince(rt0))
	return nil
}

// replay answers request i the way server.process does, calling each
// layer from outside inside its own span, with the checker decomposed
// into its layers (tracedCheck), and verifies the answer. A cold
// request's internal form is built before its span begins. It returns
// the traced check of a cold request.
func (g *rig) replay(ctx context.Context, w *obs.Worker, i int) (*tracedResult, error) {
	e, cold := g.in.entry(i)
	var prog *isa.Program
	var spec *policy.Spec
	if cold {
		var err error
		if prog, spec, err = e.build(); err != nil {
			return nil, err
		}
	}
	defer w.Flush()
	defer w.EndAll()
	w.Begin("op", e.name)

	w.Begin("layer", "server.rtt")
	err := g.version()
	w.End()
	if err != nil {
		return nil, err
	}
	w.Begin("layer", "server.decode")
	var req server.CheckRequest
	err = json.NewDecoder(bytes.NewReader(e.body)).Decode(&req)
	w.End()
	if err != nil {
		return nil, err
	}
	arch := req.Arch
	if arch == "" {
		arch = mcsafe.DefaultArch
	}
	_, _, fp, ph, err := tracedFront(w, arch, req.Spec, req.Asm, req.Entry)
	if err != nil {
		return nil, err
	}
	key := vstore.Key{Program: fp, Policy: ph, Checker: mcsafe.CheckerVersion}
	w.Begin("layer", "vstore.get")
	verdict, hit, err := g.store.Get(key)
	w.End()
	if err != nil {
		return nil, err
	}
	resp := server.CheckResponse{Program: key.Program, Policy: key.Policy, Checker: mcsafe.CheckerVersion, Cached: hit, Result: verdict}
	var res *tracedResult
	if !hit {
		if prog == nil {
			return nil, fmt.Errorf("request %d (%s): a store miss on a warm request", i, e.name)
		}
		tc, err := tracedCheck(ctx, w, prog, spec, 1)
		if err != nil {
			return nil, err
		}
		res = &tc
		w.Begin("layer", "wire.marshal")
		wire, err := tc.wire.Marshal()
		w.End()
		if err != nil {
			return res, err
		}
		w.Begin("layer", "vstore.put")
		err = g.store.Put(key, wire)
		w.End()
		if err != nil {
			return res, err
		}
		resp.Result = wire
	}
	w.Begin("layer", "wire.marshal")
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(resp)
	w.End()
	w.End()
	if err != nil {
		return res, err
	}
	if cold && mcsafe.Hash(isa.Fingerprint(prog)).String() != fp {
		return res, fmt.Errorf("request %d (%s): the checked program differs from the submitted one", i, e.name)
	}
	return res, g.in.check(i, resp, http.StatusOK)
}
