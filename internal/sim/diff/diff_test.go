package diff_test

import (
	"strings"
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/engine"
	"mighash/internal/mig"
	"mighash/internal/sim/diff"
)

func adder() *mig.MIG {
	spec, _ := circuits.ByName("Adder")
	return spec.Build()
}

func TestCheckPassesOnEquivalent(t *testing.T) {
	h := diff.New()
	m := adder()
	if err := h.Check(m, m.Clone()); err != nil {
		t.Fatalf("clone refuted: %v", err)
	}
	st := h.Stats()
	if st.Checks != 1 || st.Failures != 0 {
		t.Fatalf("stats = %+v, want 1 check, 0 failures", st)
	}
	// The structural prefix, then the random patterns.
	if want := 2 + 2*m.NumPIs() + diff.RandomPatterns; st.Patterns < int64(want) {
		t.Fatalf("swept %d patterns, want >= %d", st.Patterns, want)
	}
}

func TestCheckRefutesMutant(t *testing.T) {
	h := diff.New()
	m := adder()
	err := h.Check(m, diff.Mutant(m, 3))
	if err == nil {
		t.Fatal("ground-truth mutant not refuted")
	}
	if st := h.Stats(); st.Failures != 1 {
		t.Fatalf("stats = %+v, want 1 failure", st)
	}
}

// TestCheckRefutesWideConeMutant: on a 512-input cone the walking
// patterns alone fill 1,026 slots, and a mutant that differs only where
// two inputs are set and two others clear escapes every structural
// pattern, so only the random patterns after the prefix can refute it.
func TestCheckRefutesWideConeMutant(t *testing.T) {
	const n = 512
	m := mig.New(n)
	out := m.Input(0)
	for i := 1; i < n; i++ {
		out = m.And(out, m.Input(i))
	}
	m.AddOutput(out)
	mut := m.Clone()
	x := func(i int) mig.Lit { return mut.Input(i) }
	term := mut.And(mut.And(x(0), x(1)), mut.And(x(2).Not(), x(3).Not()))
	mut.SetOutput(0, mut.Or(mut.Output(0), term))
	if err := diff.New().Check(m, mut); err == nil {
		t.Fatal("mutant ORed with x0·x1·¬x2·¬x3 not refuted at 512 inputs")
	}
}

func TestMutantGroundTruth(t *testing.T) {
	// The XOR mutant must be inequivalent by construction; prove it with
	// the full SAT ladder rather than trusting simulation.
	m := adder()
	for k := 0; k < 4; k++ {
		eq, _, err := mig.Equivalent(m, diff.Mutant(m, k), 0)
		if err != nil {
			t.Fatal(err)
		}
		if eq {
			t.Fatalf("Mutant(%d) is equivalent to its source", k)
		}
	}
}

func TestCalibrate(t *testing.T) {
	for _, spec := range circuits.All() {
		h := diff.New()
		m := spec.Build()
		const n = 8
		if got := h.Calibrate(m, n); got != n {
			t.Errorf("%s: refuted %d/%d ground-truth mutants", spec.Name, got, n)
		}
	}
}

func TestPassCheckNamesThePass(t *testing.T) {
	h := diff.New()
	m := adder()
	err := h.PassCheck("rewrite", 2, m, diff.Mutant(m, 0))
	if err == nil {
		t.Fatal("mutant not refuted")
	}
	if !strings.Contains(err.Error(), "rewrite") || !strings.Contains(err.Error(), "iteration 2") {
		t.Fatalf("error does not identify the pass: %v", err)
	}
}

// TestHarnessVerifiesEveryPreset is the differential harness end to end:
// every preset pipeline over a suite circuit, every pass of every
// iteration re-checked against its input graph.
func TestHarnessVerifiesEveryPreset(t *testing.T) {
	m := adder()
	for _, preset := range []string{"resyn", "size", "depth", "quick", "resyn5", "size5"} {
		h := diff.New()
		p, err := engine.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		p.PassCheck = h.PassCheck
		if _, _, err := p.Run(m); err != nil {
			t.Fatalf("preset %s failed differential verification: %v", preset, err)
		}
		st := h.Stats()
		if st.Checks == 0 {
			t.Fatalf("preset %s: PassCheck hook never invoked", preset)
		}
		if st.Failures != 0 {
			t.Fatalf("preset %s: %d passes refuted", preset, st.Failures)
		}
	}
}

// TestPassCheckAbortsPipeline wires a hook that always fails and checks
// the engine aborts rather than shipping an unverified result.
func TestPassCheckAbortsPipeline(t *testing.T) {
	p, err := engine.Preset("quick")
	if err != nil {
		t.Fatal(err)
	}
	h := diff.New()
	p.PassCheck = func(pass string, it int, before, after *mig.MIG) error {
		return h.PassCheck(pass, it, before, diff.Mutant(before, 0))
	}
	if _, _, err := p.Run(adder()); err == nil {
		t.Fatal("pipeline completed despite failing verification")
	}
}
