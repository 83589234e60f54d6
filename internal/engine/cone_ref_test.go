package engine_test

import (
	"math/rand"
	"strings"
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/engine"
	"mighash/internal/exp"
	"mighash/internal/mig"
)

// extractConeRef is the reference ExtractCone: it marks the cone of
// output out by one descending sweep and rebuilds every marked gate
// through Maj into a fresh graph over all of m's inputs.
// TestExtractConeMatchesReference requires the copying ExtractCone to
// agree with it.
func extractConeRef(m *mig.MIG, out int) *mig.MIG {
	o := m.Output(out)
	reach := make([]bool, m.NumNodes())
	reach[o.ID()] = true
	for id := m.NumNodes() - 1; id > m.NumPIs(); id-- {
		if !reach[id] || !m.IsGate(mig.ID(id)) {
			continue
		}
		for _, ch := range m.Fanin(mig.ID(id)) {
			reach[ch.ID()] = true
		}
	}
	res := mig.New(m.NumPIs())
	sig := make([]mig.Lit, m.NumNodes())
	sig[0] = mig.Const0
	for i := 0; i < m.NumPIs(); i++ {
		sig[m.Input(i).ID()] = res.Input(i)
	}
	at := func(l mig.Lit) mig.Lit { return sig[l.ID()].NotIf(l.Comp()) }
	for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
		if reach[id] && m.IsGate(mig.ID(id)) {
			f := m.Fanin(mig.ID(id))
			sig[id] = res.Maj(at(f[0]), at(f[1]), at(f[2]))
		}
	}
	res.AddOutput(at(o))
	return res
}

// coneInput returns a random graph whose outputs leave gates dead and
// include the constants and inputs, plain and complemented.
func coneInput(rng *rand.Rand) *mig.MIG {
	m := mig.New(2 + rng.Intn(8))
	sigs := []mig.Lit{mig.Const0}
	for i := 0; i < m.NumPIs(); i++ {
		sigs = append(sigs, m.Input(i))
	}
	for g := 20 + rng.Intn(300); g > 0; g-- {
		pick := func() mig.Lit { return sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 0) }
		sigs = append(sigs, m.Maj(pick(), pick(), pick()))
	}
	for o := 1 + rng.Intn(6); o > 0; o-- {
		m.AddOutput(sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 0))
	}
	m.AddOutput(mig.Const1)
	m.AddOutput(m.Input(0).Not())
	return m
}

// TestExtractConeMatchesReference pins ExtractCone to the Maj-rebuilding
// reference on every output of the prepared Adder and Max and of random
// graphs with dead gates: the same text, the same depth, and a cone that
// passes mig.Check (its stored levels included).
func TestExtractConeMatchesReference(t *testing.T) {
	var graphs []*mig.MIG
	for _, name := range []string{"Adder", "Max"} {
		spec, ok := circuits.ByName(name)
		if !ok {
			t.Fatalf("suite circuit %s missing", name)
		}
		graphs = append(graphs, exp.PrepareStart(spec))
	}
	rng := rand.New(rand.NewSource(83))
	for range 40 {
		graphs = append(graphs, coneInput(rng))
	}
	text := func(m *mig.MIG) string {
		var b strings.Builder
		if err := m.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for gi, m := range graphs {
		for i := range m.NumPOs() {
			got, want := engine.ExtractCone(m, i), extractConeRef(m, i)
			if err := mig.Check(got); err != nil {
				t.Fatalf("graph %d, output %d: %v", gi, i, err)
			}
			if text(got) != text(want) || got.Depth() != want.Depth() {
				t.Fatalf("graph %d, output %d: the cone differs from the reference (depth %d, want %d)",
					gi, i, got.Depth(), want.Depth())
			}
		}
	}
}
