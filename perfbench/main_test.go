package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"mighash/internal/server"
)

// benchSpec is the part of BENCHMARK.json the tests check against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny is a workload configuration small enough for a unit test: the
// shortest timed section its percentiles allow, and a few circuits for the
// suites. Divisor stays in suite-resynx because its cold round alone runs
// enough ladders (33) for exact.ladder_p50_ms.
func tiny(t *testing.T, workload string, seed int64, trace bool) config {
	cfg := config{Workload: workload, Seed: seed, Seconds: 0.01, Trace: trace, WorkDir: t.TempDir()}
	switch workload {
	case "suite-resyn":
		cfg.Circuits = []string{"Adder", "Max"}
	case "suite-resynx":
		cfg.Circuits = []string{"Adder", "Max", "Divisor"}
	}
	return cfg
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			out, err := run(tiny(t, w.Name, 7, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.Name, trace, out.failed, out.attempted)
			}
			got := out.metrics.vals
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(got), len(want))
			}
			for _, m := range want {
				v, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not printed", w.Name, trace, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s printed in %q, want %q", w.Name, trace, m.Name, v.Unit, m.Unit)
				case !trace && v.Value <= 0:
					t.Errorf("%s: %s = %v, want a positive value", w.Name, m.Name, v.Value)
				case (m.Unit == "s" || m.Unit == "ms") && !strings.ContainsAny(out.metrics.notes[m.Name], "0123456789"):
					t.Errorf("%s: timing %s printed without its sample count", w.Name, m.Name)
				}
			}
		}
	}
}

func TestSeedFixesSuiteInputsAndQoR(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes circuits")
	}
	names := []string{"Adder", "Max", "Sine"}
	order := func(seed int64) ([]string, [][]int) {
		jobs, _, err := prepareSuite(names, seed, true, false)
		if err != nil {
			t.Fatal(err)
		}
		var ns []string
		var perms [][]int
		for _, j := range jobs {
			ns = append(ns, j.spec.Name)
			perms = append(perms, j.perm)
		}
		return ns, perms
	}
	n1, p1 := order(5)
	n2, p2 := order(5)
	if !reflect.DeepEqual(n1, n2) || !reflect.DeepEqual(p1, p2) {
		t.Error("seed 5 prepared two different job orders or input labelings")
	}
	n0, _ := order(0)
	if !reflect.DeepEqual(n0, names) {
		t.Errorf("seed 0 ordered the jobs %v, want the suite as built %v", n0, names)
	}
	gates := func() float64 {
		out, err := run(tiny(t, "suite-resyn", 5, false))
		if err != nil {
			t.Fatal(err)
		}
		return out.metrics.vals["gates_out"].Value
	}
	if a, b := gates(), gates(); a != b {
		t.Errorf("seed 5 gave gates_out %v then %v", a, b)
	}
}

func TestSeedFixesServeSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	in, err := prepareServe(false)
	if err != nil {
		t.Fatal(err)
	}
	sequence := func(seed int64) ([]int, int) {
		inst, warm, _, err := startAndWarm(server.Config{}, in)
		if err != nil {
			t.Fatal(err)
		}
		var sp servePass
		sp.warmup = warm
		runServeRounds(inst, in, rand.New(rand.NewSource(seed)), 0, 2, &sp)
		inst.stop()
		var items []int
		for _, runs := range sp.rounds {
			for _, r := range runs {
				if r.err != nil {
					t.Fatal(r.err)
				}
				items = append(items, r.item)
			}
		}
		gates, _ := sp.qor()
		return items, gates
	}
	s1, g1 := sequence(3)
	s2, g2 := sequence(3)
	s3, _ := sequence(4)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("seed 3 drew two different request sequences")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Error("seeds 3 and 4 drew the same request sequence")
	}
	if g1 != g2 {
		t.Errorf("seed 3 gave gates_out %d then %d", g1, g2)
	}
}

func TestPercentileGuard(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples leaves 9 beyond it and must be an error")
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 989 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 989", v, err)
	}
	if _, err := percentile(xs[:20], 0.5); err != nil {
		t.Errorf("p50 of 20 samples leaves 10 beyond it: %v", err)
	}
	if _, err := layerP50(xs[:19]); err == nil {
		t.Error("p50 of 19 samples must be an error")
	}
	if v, err := layerP50(nil); err != nil || v != 0 {
		t.Errorf("a layer without samples reports %v, %v; want 0", v, err)
	}
}
