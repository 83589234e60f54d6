package engine

import (
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/mig"
	"mighash/internal/sim/diff"
)

// TestExtractionSuiteMetamorphic is the metamorphic property behind the
// choice-aware rewriter, checked on the real benchmark suite rather
// than random graphs: on every circuit the extraction pass (TFx) must
// (1) preserve the function — refuted by the word-parallel differential
// harness everywhere, and proven by the SAT ladder on the two circuits
// cheap enough to prove; (2) never end larger than its greedy twin (TF)
// on the same input — the rewriter commits both the greedy decision
// sequence and the extracted cover and keeps the better graph, so a
// regression here means that guarantee rotted.
func TestExtractionSuiteMetamorphic(t *testing.T) {
	if testing.Short() {
		t.Skip("suite-wide extraction sweep is not a -short test")
	}
	for _, spec := range circuits.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			m := spec.Build()
			run := func(pass string) (*mig.MIG, PipelineStats) {
				p, err := Preset(pass)
				if err != nil {
					t.Fatal(err)
				}
				p.MaxIterations = 1
				out, st, err := p.Run(m)
				if err != nil {
					t.Fatalf("%s: %v", pass, err)
				}
				return out, st
			}
			greedy, _ := run("TF")
			x1, st := run("TFx")
			if st.Choices == 0 {
				t.Error("extraction pass recorded no choices")
			}
			if x1.Size() > greedy.Size() {
				t.Errorf("extraction ended worse than greedy: %d > %d gates",
					x1.Size(), greedy.Size())
			}
			h := diff.New(diff.Options{})
			if err := h.Check(m, x1); err != nil {
				t.Errorf("extraction result not sim-equivalent to input: %v", err)
			}
			// The SAT rung on the full suite would dominate the whole test
			// binary; proving the two structurally distinct cheap circuits
			// (a carry chain and a comparator tree) keeps the ladder honest.
			if spec.Name == "Adder" || spec.Name == "Max" {
				eq, ce, err := mig.Equivalent(m, x1, 0)
				if err != nil {
					t.Fatalf("equivalence check failed to run: %v", err)
				}
				if !eq {
					t.Errorf("SAT refuted extraction result, counterexample %v", ce)
				}
			}
		})
	}
}
