package mig

import (
	"bytes"
	"math/rand"
	"testing"
)

// levelsRef is the reference level computation: one full ascending sweep
// over the fanins, terminals at level 0 and every gate one more than its
// deepest fanin. The graph stores the same values as it makes its
// nodes, and TestLevelsMatchReference requires the two to agree.
func levelsRef(m *MIG) []int {
	lv := make([]int, len(m.fanin))
	for id := m.numPI + 1; id < len(m.fanin); id++ {
		top := 0
		for _, ch := range m.fanin[id] {
			top = max(top, lv[ch.ID()])
		}
		lv[id] = top + 1
	}
	return lv
}

// requireLevels compares every stored level and the depth of m with the
// reference sweep.
func requireLevels(t *testing.T, name string, m *MIG) {
	t.Helper()
	ref := levelsRef(m)
	depth := 0
	for _, o := range m.outputs {
		depth = max(depth, ref[o.ID()])
	}
	for id := range ref {
		if got := m.Level(ID(id)); got != ref[id] {
			t.Fatalf("%s: node %d has level %d, want %d", name, id, got, ref[id])
		}
	}
	if got := m.Depth(); got != depth {
		t.Fatalf("%s: depth %d, want %d", name, got, depth)
	}
}

// TestLevelsMatchReference checks the stored levels against the full
// sweep on every way the package makes a graph: Maj on random graphs
// with dead gates, a Reset builder reused with other inputs, Compact,
// Clone, Cone, ReadText and ReadBENCH.
func TestLevelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	reused := New(0)
	for trial := 0; trial < 30; trial++ {
		m := compactInput(rng)
		requireLevels(t, "built", m)
		requireLevels(t, "compacted", m.Compact())
		requireLevels(t, "clone", m.Clone())
		for i := range m.NumPOs() {
			requireLevels(t, "cone", m.Cone(i))
		}

		reused.Reset(2 + rng.Intn(8))
		sigs := []Lit{Const0}
		for i := 0; i < reused.NumPIs(); i++ {
			sigs = append(sigs, reused.Input(i))
		}
		for g := rng.Intn(300); g > 0; g-- {
			pick := func() Lit { return sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 0) }
			sigs = append(sigs, reused.Maj(pick(), pick(), pick()))
		}
		reused.AddOutput(sigs[len(sigs)-1])
		requireLevels(t, "reset", reused)

		var text, bench bytes.Buffer
		if err := m.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteBENCH(&bench); err != nil {
			t.Fatal(err)
		}
		fromText, err := ReadText(&text)
		if err != nil {
			t.Fatal(err)
		}
		requireLevels(t, "ReadText", fromText)
		fromBENCH, err := ReadBENCH(&bench)
		if err != nil {
			t.Fatal(err)
		}
		requireLevels(t, "ReadBENCH", fromBENCH)
	}
}
