// Command perfbench is mcsafe's benchmark. It runs one workload for a
// fixed time, checks every verdict against an answer the checker did
// not produce, and prints the workload's metrics as one JSON object on
// the last line of standard output:
//
//	bash perfbench/run.sh --workload fig9 --seed 1 --seconds 30 --trace 0
//
// Workloads are fig9, gen-scale and service (README.md says why each
// exists). --trace 0 measures the end-to-end metrics with tracing off;
// --trace 1 is the separate traced run that reports per-layer metrics.
// The lines above the result are the run's environment record, a
// digest of its inputs and one row per input.
//
// A wrong verdict, a broken exact-count guard or a failed request makes
// the result's "correct" false and the exit status 1.
package main

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"mcsafe/internal/obs"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation that workloads fill in.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool
	work    string // scratch directory for the store and span files

	res      result
	failures []string
}

// put records a metric.
func (r *run) put(name, unit string, v float64) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation and keeps its reason for the report.
func (r *run) fail(format string, args ...any) {
	r.res.Failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// endToEnd are the metrics every workload reports with --trace 0, by
// name and unit, each computed from that workload's own operations
// (README.md defines them per workload); BENCHMARK.json names the same.
var endToEnd = map[string]string{
	"setup_s": "s", "max_rss_mb": "MB", "check_geomean_ms": "ms", "insns_per_s": "1/s",
}

// perLayer are the metrics every workload's traced run (--trace 1)
// reports, by name and unit.
func perLayer() map[string]string {
	m := map[string]string{
		"solver.cache_hit_ratio": "ratio", "vcgen.proved_ratio": "ratio", "induction.iters_per_run": "ratio",
		"traced.check_geomean_ms": "ms", "runtime.alloc_mb": "MB", "runtime.gc_cpu_frac": "ratio",
	}
	for _, layer := range tracedLayers {
		m[layer+"_ms"] = "ms"
	}
	for _, name := range reportedCounts {
		m[name] = "count"
	}
	return m
}

// checkMetrics reports whether the run's metrics are exactly want, in
// its units, with finite values, and end-to-end values above zero.
func (r *run) checkMetrics(want map[string]string) error {
	for name, unit := range want {
		m, ok := r.res.Metrics[name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", name)
		case m.Unit != unit:
			return fmt.Errorf("metric %s is in %s, want %s", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", name, m.Value)
		case !r.trace && m.Value <= 0:
			return fmt.Errorf("metric %s is %v, not above zero", name, m.Value)
		}
	}
	for name := range r.res.Metrics {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not one of the workload's", name)
		}
	}
	return nil
}

var workloads = map[string]func(*run) error{
	"fig9":      runFig9,
	"gen-scale": runGenScale,
	"service":   runService,
}

func main() {
	os.Exit(benchMain())
}

func benchMain() int {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	workload := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs and schedule are drawn from")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	work := flag.String("work", ".bench_build", "scratch directory for the verdict store and span files")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	r := &run{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, work: *work,
		res: result{Metrics: map[string]metric{}},
	}

	steal0, stealErr := readCPUStat()
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	want := endToEnd
	if r.trace {
		want = perLayer()
	}
	if err := r.checkMetrics(want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	env := map[string]any{
		"workload":   *workload,
		"seed":       *seed,
		"trace":      *trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(),
	}
	if steal1, err := readCPUStat(); err == nil && stealErr == nil {
		env["cpu_steal_share"] = steal1.stealShareSince(steal0)
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !r.res.Correct {
		return 1
	}
	return 0
}

// commit names the code under test: the VCS revision stamped into the
// binary when it was built inside a repository, otherwise a digest of
// the module's Go sources and go.mod files under the working directory.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// writeSpans writes the traced run's spans, one JSON object per line,
// gzip-compressed, to the scratch directory.
func writeSpans(r *run, workload string, spans []obs.Span) error {
	path := filepath.Join(r.work, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans %s\n", path)
	return nil
}
