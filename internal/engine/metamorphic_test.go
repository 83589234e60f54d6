package engine

import (
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/mig"
	"mighash/internal/sim/diff"
)

// TestPresetsMetamorphic is the metamorphic property behind "run it
// again": re-optimizing an already-optimized circuit must preserve its
// function (checked pass-by-pass and end-to-end by the differential
// harness) and never regress the preset's objective — size for the size
// scripts, depth for the depth script. The pipeline guarantees the
// latter by construction (the best graph starts as the input); this
// test keeps the guarantee from rotting.
func TestPresetsMetamorphic(t *testing.T) {
	spec, ok := circuits.ByName("Adder")
	if !ok {
		t.Fatal("suite circuit Adder missing")
	}
	m0 := spec.Build()
	for _, name := range []string{"resyn", "size", "depth", "quick", "resyn5", "size5", "resyn-x", "depth-x"} {
		t.Run(name, func(t *testing.T) {
			h := diff.New()
			run := func(m *mig.MIG) *mig.MIG {
				p, err := Preset(name)
				if err != nil {
					t.Fatal(err)
				}
				p.PassCheck = h.PassCheck
				out, _, err := p.Run(m)
				if err != nil {
					t.Fatalf("pipeline failed differential verification: %v", err)
				}
				return out
			}
			m1 := run(m0)
			m2 := run(m1)
			for _, pair := range []struct {
				label string
				a, b  *mig.MIG
			}{{"input vs once", m0, m1}, {"once vs twice", m1, m2}, {"input vs twice", m0, m2}} {
				if err := h.Check(pair.a, pair.b); err != nil {
					t.Errorf("%s not sim-equivalent: %v", pair.label, err)
				}
			}
			if name == "depth" || name == "depth-x" {
				if m2.Depth() > m1.Depth() || m1.Depth() > m0.Depth() {
					t.Errorf("depth grew across reruns: %d -> %d -> %d", m0.Depth(), m1.Depth(), m2.Depth())
				}
			} else {
				if m2.Size() > m1.Size() || m1.Size() > m0.Size() {
					t.Errorf("size grew across reruns: %d -> %d -> %d", m0.Size(), m1.Size(), m2.Size())
				}
			}
			if st := h.Stats(); st.Checks == 0 || st.Failures != 0 {
				t.Errorf("harness stats %+v", st)
			}
		})
	}
}
