package engine_test

import (
	"fmt"
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/engine"
	"mighash/internal/exp"
	"mighash/internal/mig"
)

// TestEveryPassResultWellFormed runs resyn, resyn-x and depth-x on the
// prepared Adder and Max with a PassCheck that runs mig.Check on every
// pass result: fanins below their gate, outputs in range, every triple
// canonical and unique. Compact copies triples without re-normalizing
// them, so a pass that stored a non-canonical triple would pass it on
// unnoticed; this is where it would show.
func TestEveryPassResultWellFormed(t *testing.T) {
	for _, circuit := range []string{"Adder", "Max"} {
		spec, ok := circuits.ByName(circuit)
		if !ok {
			t.Fatalf("suite circuit %s missing", circuit)
		}
		m := exp.PrepareStart(spec)
		if err := mig.Check(m); err != nil {
			t.Fatalf("prepared %s: %v", circuit, err)
		}
		for _, script := range []string{"resyn", "resyn-x", "depth-x"} {
			p, err := engine.Preset(script)
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			p.PassCheck = func(pass string, iter int, _, after *mig.MIG) error {
				checked++
				if err := mig.Check(after); err != nil {
					return fmt.Errorf("%s, iteration %d: %w", pass, iter, err)
				}
				return nil
			}
			if _, st, err := p.Run(m); err != nil {
				t.Errorf("%s on %s: %v", script, circuit, err)
			} else if checked != len(st.Passes) {
				t.Errorf("%s on %s: checked %d of %d passes", script, circuit, checked, len(st.Passes))
			}
		}
	}
}
