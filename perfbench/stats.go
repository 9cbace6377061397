package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (the mean of the middle two for an
// even count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs and how
// many samples lie above it.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// maxRSSMB is the process's peak resident set size in MB (2^20 bytes).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuStat is the aggregate line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() (cpuStat, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}, fmt.Errorf("/proc/stat: empty")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}, fmt.Errorf("/proc/stat: unexpected first line %q", sc.Text())
	}
	var st cpuStat
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}, fmt.Errorf("/proc/stat: %v", err)
		}
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st, nil
}

// stealShareSince is the host's CPU-steal share of all CPU time
// between two readings.
func (s cpuStat) stealShareSince(prev cpuStat) float64 {
	if s.total <= prev.total {
		return 0
	}
	return float64(s.steal-prev.steal) / float64(s.total-prev.total)
}

// rtSample is a reading of the Go runtime's allocation and CPU-class
// counters.
type rtSample struct {
	allocBytes               uint64
	gcCPU, totalCPU, idleCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return rtSample{
		allocBytes: ss[0].Value.Uint64(),
		gcCPU:      ss[1].Value.Float64(),
		totalCPU:   ss[2].Value.Float64(),
		idleCPU:    ss[3].Value.Float64(),
	}
}

// gcShareSince is the GC's share of the CPU time the process used (not
// idle) between two readings.
func (s rtSample) gcShareSince(prev rtSample) float64 {
	busy := (s.totalCPU - prev.totalCPU) - (s.idleCPU - prev.idleCPU)
	if busy <= 0 {
		return 0
	}
	return (s.gcCPU - prev.gcCPU) / busy
}

// digest is a short SHA-256 over an ordered list of content addresses.
func digest(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%s\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Set-up is repeated until it has run at least minSetups times and for
// at least minSetupTime (at most maxSetups times), and setup_s is the
// median, so a set-up of a few milliseconds still reads steadily.
const (
	minSetups    = 5
	maxSetups    = 200
	minSetupTime = time.Second
)

// timeRepeated runs set-up and returns the median wall time of one run
// in seconds; when repeat is false it runs set-up once.
func timeRepeated(repeat bool, setup func() error) (float64, error) {
	var secs []float64
	var total time.Duration
	for len(secs) == 0 || repeat && len(secs) < maxSetups && (len(secs) < minSetups || total < minSetupTime) {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		total += d
		secs = append(secs, d.Seconds())
	}
	return median(secs), nil
}
