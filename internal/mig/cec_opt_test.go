package mig

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mighash/internal/sim"
)

// mutate returns a clone of m with output j XOR-ed with input i — a
// ground-truth inequivalent mutant (it differs exactly on the
// assignments setting input i).
func mutate(m *MIG, j, i int) *MIG {
	c := m.Clone()
	c.SetOutput(j, c.Xor(c.Output(j), c.Input(i)))
	return c
}

// TestEquivalentOptPrefilterRefutesWithoutSAT is the acceptance check for
// the prefilter: a corpus of mutated circuits must be refuted by
// simulation alone, the SAT solver never invoked.
func TestEquivalentOptPrefilterRefutesWithoutSAT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		m := randomMIG(rng, 4+rng.Intn(5), 10+rng.Intn(30), 1+rng.Intn(3))
		mut := mutate(m, rng.Intn(m.NumPOs()), rng.Intn(m.NumPIs()))
		eq, ce, st, err := EquivalentOpt(m, mut, EquivOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if eq {
			t.Fatalf("trial %d: mutant reported equivalent", trial)
		}
		if !st.SimRefuted || st.SATRan {
			t.Fatalf("trial %d: mutant not refuted by prefilter: %+v", trial, st)
		}
		if !st.Proven {
			t.Fatalf("trial %d: concrete counterexample not marked proven", trial)
		}
		if ce == nil || len(ce.Inputs) != m.NumPIs() || len(ce.Outputs) == 0 {
			t.Fatalf("trial %d: malformed counterexample %v", trial, ce)
		}
	}
}

// TestEquivalentOptNoSAT covers the refute-only mode: sim-clean pairs are
// reported equivalent but unproven, and the SAT solver stays cold.
func TestEquivalentOptNoSAT(t *testing.T) {
	m1 := New(2)
	m1.AddOutput(m1.Xor(m1.Input(0), m1.Input(1)))
	m2 := New(2)
	m2.AddOutput(m2.Mux(m2.Input(0), m2.Input(1).Not(), m2.Input(1)))
	eq, ce, st, err := EquivalentOpt(m1, m2, EquivOptions{NoSAT: true})
	if err != nil {
		t.Fatal(err)
	}
	if !eq || ce != nil {
		t.Fatalf("sim-clean pair refuted: %v", ce)
	}
	if st.Proven || st.SATRan {
		t.Fatalf("NoSAT check claims a proof: %+v", st)
	}
	if st.SimPatterns < DefaultSimPatterns {
		t.Fatalf("simulated %d patterns, want >= %d", st.SimPatterns, DefaultSimPatterns)
	}
}

// TestEquivalentOptPureSAT pins the pre-ladder behavior behind
// SimPatterns < 0: no simulation, straight to the miter.
func TestEquivalentOptPureSAT(t *testing.T) {
	m1 := New(2)
	m1.AddOutput(m1.And(m1.Input(0), m1.Input(1)))
	m2 := New(2)
	m2.AddOutput(m2.Or(m2.Input(0), m2.Input(1)))
	eq, ce, st, err := EquivalentOpt(m1, m2, EquivOptions{SimPatterns: -1})
	if err != nil {
		t.Fatal(err)
	}
	if eq || ce == nil {
		t.Fatal("AND vs OR reported equivalent")
	}
	if st.SimPatterns != 0 || st.SimRefuted || !st.SATRan || !st.Proven {
		t.Fatalf("unexpected stats for pure SAT: %+v", st)
	}
}

// TestCounterexampleListsAllOutputs is the regression test for the
// counterexample fix: every differing output must be reported (the old
// code only reported the first), and the assignment must replay to the
// same verdict through the word-parallel simulator.
func TestCounterexampleListsAllOutputs(t *testing.T) {
	// Outputs 0 and 1 swapped between the two graphs, output 2 shared:
	// whenever the inputs differ, outputs 0 AND 1 both disagree.
	build := func(swap bool) *MIG {
		m := New(2)
		and := m.And(m.Input(0), m.Input(1))
		or := m.Or(m.Input(0), m.Input(1))
		if swap {
			and, or = or, and
		}
		m.AddOutput(and)
		m.AddOutput(or)
		m.AddOutput(m.Input(0))
		return m
	}
	a, b := build(false), build(true)
	for _, mode := range []struct {
		name string
		opt  EquivOptions
	}{
		{"sim", EquivOptions{}},
		{"sat", EquivOptions{SimPatterns: -1}},
	} {
		eq, ce, _, err := EquivalentOpt(a, b, mode.opt)
		if err != nil {
			t.Fatal(err)
		}
		if eq || ce == nil {
			t.Fatalf("%s: swapped outputs reported equivalent", mode.name)
		}
		if len(ce.Outputs) != 2 || ce.Outputs[0] != 0 || ce.Outputs[1] != 1 {
			t.Fatalf("%s: Outputs = %v, want [0 1]", mode.name, ce.Outputs)
		}
		if ce.Output != ce.Outputs[0] {
			t.Fatalf("%s: Output = %d, want first of %v", mode.name, ce.Output, ce.Outputs)
		}
		// Replay the assignment through the word-parallel simulator: the
		// reported outputs, and only those, must differ.
		replayDiff := replaySim(t, a, b, ce.Inputs)
		if len(replayDiff) != len(ce.Outputs) {
			t.Fatalf("%s: replay differs on %v, counterexample says %v", mode.name, replayDiff, ce.Outputs)
		}
		for i := range replayDiff {
			if replayDiff[i] != ce.Outputs[i] {
				t.Fatalf("%s: replay differs on %v, counterexample says %v", mode.name, replayDiff, ce.Outputs)
			}
		}
	}
}

// replaySim runs one assignment through both compiled circuits on the
// word-parallel engine and returns the differing output indices.
func replaySim(t *testing.T, a, b *MIG, inputs []bool) []int {
	t.Helper()
	ca, cb := a.SimCircuit(), b.SimCircuit()
	ws := sim.NewWorkspace()
	in := make([]uint64, ca.NumPIs)
	for i, v := range inputs {
		if v {
			in[i] = 1
		}
	}
	outA := make([]uint64, ca.NumPOs())
	outB := make([]uint64, cb.NumPOs())
	ca.Run(ws, in, 1, outA)
	cb.Run(ws, in, 1, outB)
	return sim.DiffOutputs(outA, outB, 1, 0)
}

// TestEquivalentPoolFeedback checks the counterexample-guided loop: a SAT
// model recorded in a shared pool lets the prefilter refute the same pair
// by simulation alone on the next check.
func TestEquivalentPoolFeedback(t *testing.T) {
	// The pair differs on exactly one of 2^16 assignments (a single
	// minterm vs constant 0), so a 64-pattern random sweep misses it.
	const n = 16
	m1 := New(n)
	acc := Const1
	want := make([]bool, n)
	for i := 0; i < n; i++ {
		want[i] = i%3 == 0
		m1.AddOutput(Const0) // padding outputs keep the graphs multi-output
		l := m1.Input(i)
		if !want[i] {
			l = l.Not()
		}
		acc = m1.And(acc, l)
	}
	m1.SetOutput(0, acc)
	m2 := New(n)
	for i := 0; i < n; i++ {
		m2.AddOutput(Const0)
	}

	pool := sim.NewPool(n, 99)
	opt := EquivOptions{SimPatterns: 64, Pool: pool}
	eq, ce, st, err := EquivalentOpt(m1, m2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("single-minterm pair reported equivalent")
	}
	if !st.SATRan {
		// The deterministic 64-pattern sweep hitting the minterm would make
		// this test vacuous; the fixed seed keeps it from happening.
		t.Fatalf("prefilter refuted before SAT could demonstrate feedback: %+v", st)
	}
	for i := range want {
		if ce.Inputs[i] != want[i] {
			t.Fatalf("SAT model %v, want the unique minterm %v", ce.Inputs, want)
		}
	}
	if pool.Counterexamples() != 1 {
		t.Fatalf("pool holds %d counterexamples after SAT, want 1", pool.Counterexamples())
	}
	// Second check over the same pool: the replayed model refutes in the
	// prefilter, no SAT needed.
	eq, _, st, err = EquivalentOpt(m1, m2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if eq || !st.SimRefuted || st.SATRan {
		t.Fatalf("pool feedback did not short-circuit SAT: eq=%v stats=%+v", eq, st)
	}
}

// TestEquivalentOptReusesScratchSafely runs refute-only checks of pairs
// of different widths, sizes and batch sizes from several goroutines at
// once, so the pooled simulation buffers pass between calls and are
// resized both ways; every verdict and counterexample must match the
// serial run's.
func TestEquivalentOptReusesScratchSafely(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type pair struct {
		a, b *MIG
		eq   bool
		ce   string
	}
	var pairs []pair
	for i := 0; i < 16; i++ {
		m := randomMIG(rng, 4+rng.Intn(60), 10+rng.Intn(200), 1+rng.Intn(4))
		b := m.Clone()
		if i%2 == 1 {
			b = mutate(m, rng.Intn(m.NumPOs()), rng.Intn(m.NumPIs()))
		}
		pairs = append(pairs, pair{a: m, b: b})
	}
	check := func(p pair) (bool, string) {
		eq, ce, _, err := EquivalentOpt(p.a, p.b, EquivOptions{NoSAT: true, SimPatterns: 64 << (p.a.NumPIs() % 3)})
		if err != nil {
			t.Error(err)
		}
		return eq, fmt.Sprint(ce)
	}
	for i := range pairs {
		pairs[i].eq, pairs[i].ce = check(pairs[i])
		if pairs[i].eq != (i%2 == 0) {
			t.Fatalf("pair %d: equivalent = %v", i, pairs[i].eq)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				i := (g*5 + k) % len(pairs)
				if eq, ce := check(pairs[i]); eq != pairs[i].eq || ce != pairs[i].ce {
					t.Errorf("pair %d: got (%v, %s), serial (%v, %s)", i, eq, ce, pairs[i].eq, pairs[i].ce)
				}
			}
		}()
	}
	wg.Wait()
}

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

// TestEquivalentOptSteadyStateAllocs pins that a refute-only check over a
// shared pool allocates nothing once warm: the sweep workspace, compiled
// circuits and output batches are reused (AllocsPerRun measures at
// GOMAXPROCS 1, so the reuse pool's per-P slot is always the same one).
func TestEquivalentOptSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	m := randomMIG(rand.New(rand.NewSource(3)), 40, 400, 4)
	c := m.Clone()
	opt := EquivOptions{NoSAT: true, Pool: sim.NewPool(m.NumPIs(), 1)}
	allocs := testing.AllocsPerRun(20, func() {
		if eq, _, _, err := EquivalentOpt(m, c, opt); err != nil || !eq {
			t.Fatalf("clone: equivalent = %v, err = %v", eq, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm refute-only check made %.1f allocations, want 0", allocs)
	}
}
