// Command perfbench is the repository's benchmark: one seeded command that
// drives the optimizer through its public entry points (engine presets and
// Pipeline.RunContext, the HTTP service over loopback, and the layer
// packages' exported functions) and prints end-to-end or per-layer
// metrics. README.md beside this file documents the workloads, the
// metrics and the baseline.
//
//	perfbench --workload suite-resyn --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits nonzero when
// any output fails its check or a percentile is under-sampled.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart anchors setup_s: set-up is timed from process start to the
// first timed operation.
var processStart = time.Now()

// minBeyond is the number of samples a reported percentile must leave
// above it; fewer is an error, not a number.
const minBeyond = 10

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 3

// config is one invocation. The command fills it from flags; the tests
// shrink the circuit lists.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// WorkDir receives the server's trace files during a traced serve-cones
	// run; they are removed before the command returns.
	WorkDir string
	// Circuits overrides a suite workload's circuit list.
	Circuits []string
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the command's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects metrics with a human-readable note (sample counts)
// for the summary printed above the result line.
type metricSet struct {
	vals  map[string]metric
	notes map[string]string
	order []string
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]metric{}, notes: map[string]string{}}
}

func (s *metricSet) set(name, unit string, v float64, note string) {
	if _, dup := s.vals[name]; !dup {
		s.order = append(s.order, name)
	}
	s.vals[name] = metric{Value: v, Unit: unit}
	s.notes[name] = note
}

func (s *metricSet) write(w io.Writer) {
	for _, n := range s.order {
		m := s.vals[n]
		fmt.Fprintf(w, "%-36s %14.6g %-8s %s\n", n, m.Value, m.Unit, s.notes[n])
	}
}

// outcome is what a workload run returns: the metrics of the requested
// kind (end-to-end or per-layer) and the operation counts.
type outcome struct {
	metrics           *metricSet
	attempted, failed int
}

func main() {
	cfg := config{WorkDir: ".bench_build"}
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "suite-resyn, suite-resynx or serve-cones")
	flag.Int64Var(&cfg.Seed, "seed", 0, "input seed (0: the suite as built)")
	flag.Float64Var(&cfg.Seconds, "seconds", 15, "length of the timed section")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	cfg.Trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out.metrics.write(os.Stdout)
	rep := report{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics.vals,
	}
	fmt.Printf("fail_ratio %g (%d of %d operations failed)\n",
		float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one workload.
func run(cfg config) (*outcome, error) {
	if cfg.Seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	var (
		out *outcome
		err error
	)
	switch cfg.Workload {
	case "suite-resyn", "suite-resynx":
		out, err = runSuite(cfg)
	case "serve-cones":
		out, err = runServe(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want suite-resyn, suite-resynx or serve-cones)", cfg.Workload)
	}
	if err != nil {
		return nil, err
	}
	if out.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return out, nil
}

// median of xs (mean of the middle pair for even counts); 0 when empty.
// Medians over rounds are reported with their round count and are not
// subject to the percentile guard: a round is the unit of work there.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs. It is an error
// when fewer than minBeyond samples lie above the rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want at least %d",
			100*q, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// layerP50 is the percentile guard for per-layer metrics: a layer the
// workload never enters (no samples) reports 0, anything else must be
// sampled well enough.
func layerP50(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	return percentile(xs, 0.5)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// peakRSSMiB is VmHWM of this process, falling back to getrusage's
// ru_maxrss where /proc is unavailable.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTime is the user plus system CPU time of this process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
