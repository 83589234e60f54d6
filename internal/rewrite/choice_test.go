package rewrite

import (
	"bytes"
	"math/rand"
	"testing"

	"mighash/internal/extract"
	"mighash/internal/mig"
	"mighash/internal/tt"
)

// renderMIG serializes a graph for bit-identity comparison.
func renderMIG(t *testing.T, g *mig.MIG) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// choiceVariants pairs every choice-aware configuration with its greedy
// twin.
var choiceVariants = []struct {
	name string
	x, g Options
}{
	{"TFx", variant("TFx"), TF},
	{"Tx", variant("Tx"), T},
	{"Txd", variant("Txd"), T},
}

// TestChoicePreservesFunction: choice-aware passes are sound (exhaustive
// simulation) and never worse than their greedy twin under the
// extraction objective.
func TestChoicePreservesFunction(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 12; round++ {
		pis := 4 + rng.Intn(3)
		m := randomMIG(rng, pis, 20+rng.Intn(60), 1+rng.Intn(4))
		want := m.Simulate()
		for _, v := range choiceVariants {
			got, st := Run(m, d, v.x)
			sim := got.Simulate()
			for i := range want {
				if sim[i] != want[i] {
					t.Fatalf("round %d %s: output %d computes %v, want %v", round, v.name, i, sim[i], want[i])
				}
			}
			if st.Choices == 0 && st.SizeBefore > 0 {
				t.Errorf("round %d %s: no choices recorded for a %d-gate graph", round, v.name, st.SizeBefore)
			}
			_, gst := Run(m, d, v.g)
			if v.x.ExtractObjective == 0 && st.SizeAfter > gst.SizeAfter {
				t.Errorf("round %d %s: size %d worse than greedy twin's %d", round, v.name, st.SizeAfter, gst.SizeAfter)
			}
			if v.x.ExtractObjective != 0 && st.DepthAfter > gst.DepthAfter {
				t.Errorf("round %d %s: depth %d worse than greedy twin's %d", round, v.name, st.DepthAfter, gst.DepthAfter)
			}
		}
	}
}

// TestChoiceDeterministicAcrossWorkers: the extracted graph is
// bit-identical at any worker count — evaluation is a pure per-node
// function and both commits are serial.
func TestChoiceDeterministicAcrossWorkers(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 6; round++ {
		m := randomMIG(rng, 8+rng.Intn(4), 120+rng.Intn(120), 3)
		opt := variant("TFx")
		opt.Workers = 1
		base, bst := Run(m, d, opt)
		baseText := renderMIG(t, base)
		for _, workers := range []int{2, 4} {
			opt.Workers = workers
			got, st := Run(m, d, opt)
			if renderMIG(t, got) != baseText {
				t.Fatalf("round %d: %d workers produced a different graph than 1 worker", round, workers)
			}
			if st.Replacements != bst.Replacements || st.SizeAfter != bst.SizeAfter {
				t.Fatalf("round %d: %d workers: %d replacements size %d, 1 worker: %d size %d",
					round, workers, st.Replacements, st.SizeAfter, bst.Replacements, bst.SizeAfter)
			}
		}
	}
}

// TestChoiceRecoversOptimumOnSingleCone: the extraction must never lose
// the defining property of functional hashing — a whole-graph 4-input
// cone still collapses to the database optimum.
func TestChoiceRecoversOptimumOnSingleCone(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 20; round++ {
		f := tt.New(4, uint64(rng.Intn(1<<16)))
		m := naive4(f)
		if m.Size() <= d.Size(f) {
			continue
		}
		got, st := Run(m, d, variant("Tx"))
		if want := d.Size(f); st.SizeAfter != want {
			t.Errorf("f=%v: choice-aware pass reached size %d, optimum %d", f, st.SizeAfter, want)
		}
		if sim := got.Simulate()[0]; sim != f {
			t.Fatalf("f=%v: optimized MIG computes %v", f, sim)
		}
	}
}

// TestChoiceVariantNames pins the acronym scheme for the choice-aware
// variants in both directions of the pass grammar.
func TestChoiceVariantNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"TFx", Options{FFR: true, Extract: true}},
		{"Tx", Options{Extract: true}},
		{"TF5x", Options{FFR: true, K: 5, Extract: true}},
		{"T5x", Options{K: 5, Extract: true}},
		{"Txd", Options{Extract: true, ExtractObjective: extract.Depth}},
		{"TFD5xd", Options{FFR: true, DepthPreserve: true, K: 5, Extract: true, ExtractObjective: extract.Depth}},
	} {
		if got := VariantName(tc.opt); got != tc.name {
			t.Errorf("VariantName(%+v) = %q, want %q", tc.opt, got, tc.name)
		}
		if o, ok := ParseVariant(tc.name); !ok || o != tc.opt {
			t.Errorf("ParseVariant(%q) = %+v, %v, want %+v", tc.name, o, ok, tc.opt)
		}
	}
}

// TestSigTableMatchesMapInterning: the workspace's signature table
// assigns the IDs a fresh map assigning len+1 on first sight would, in
// the same order, through several growths and across resets — so the
// choice graph's duplicate-cone IDs do not depend on the table.
func TestSigTableMatchesMapInterning(t *testing.T) {
	entries := loadDB(t).Entries()
	rng := rand.New(rand.NewSource(67))
	var tab sigTable
	for pass := 0; pass < 3; pass++ {
		tab.reset()
		ref := map[sigKey]int32{}
		for i := 0; i < 2000; i++ {
			// Few leaves and entries, so keys repeat often.
			k := sigKey{entry: &entries[rng.Intn(8)]}
			for j := range k.lits {
				k.lits[j] = uint32(rng.Intn(3))
			}
			want, ok := ref[k]
			if !ok {
				want = int32(len(ref) + 1)
				ref[k] = want
			}
			if got := tab.intern(&k); got != want {
				t.Fatalf("pass %d key %d: ID %d, want %d", pass, i, got, want)
			}
		}
		if len(ref) < 256 {
			t.Fatalf("pass %d: only %d distinct keys; the table never grew", pass, len(ref))
		}
	}
}
