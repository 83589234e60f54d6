package engine_test

import (
	"hash/fnv"
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/engine"
	"mighash/internal/exp"
	"mighash/internal/mig"
)

// TestGoldenOutputs pins the exact result of every preset on Adder and
// Max, plus the TFx pass on Sine, on starting points prepared like the
// paper tables' (exp.PrepareStart): size, depth, the gates the
// extraction saved over its greedy twin, and a 64-bit FNV-1a hash of
// the optimized graph's WriteText form. A refactor of the rewriter, the
// extractor or the pipeline that claims to keep results must leave every
// row unchanged. The rows exercise both outcomes of an extraction pass:
// on Sine the TFx cover beats the twin by 184 gates, under depth-x on
// Max the cover wins on depth by spending 6 gates, and resyn-x keeps the
// twin on both small circuits.
func TestGoldenOutputs(t *testing.T) {
	golden := []struct {
		circuit, script string
		size, depth     int
		saved           int
		hash            uint64
	}{
		{"Adder", "depth", 894, 10, 0, 0xf676251c09177027},
		{"Adder", "depth-x", 894, 10, 0, 0xf676251c09177027},
		{"Adder", "quick", 894, 10, 0, 0xf676251c09177027},
		{"Adder", "resyn", 894, 10, 0, 0xf676251c09177027},
		{"Adder", "resyn-x", 612, 18, 0, 0x10934ca994e720bc},
		{"Adder", "resyn5", 612, 18, 0, 0x10934ca994e720bc},
		{"Adder", "size", 894, 10, 0, 0xf676251c09177027},
		{"Adder", "size5", 384, 129, 0, 0x2aff4f3c02a43182},
		{"Max", "depth", 3460, 19, 0, 0xc8edda1e4bc0a7b8},
		{"Max", "depth-x", 3460, 19, -6, 0xc8edda1e4bc0a7b8},
		{"Max", "quick", 3454, 20, 0, 0x6fbf902fbafa1bd5},
		{"Max", "resyn", 3454, 20, 0, 0x7189fb67cc10d76a},
		{"Max", "resyn-x", 2914, 33, 0, 0x164ceeaf19984d20},
		{"Max", "resyn5", 2914, 33, 0, 0x164ceeaf19984d20},
		{"Max", "size", 3454, 20, 0, 0x71382bdb0ddf4265},
		{"Max", "size5", 1539, 260, 0, 0xfc023959b6727168},
		{"Sine", "TFx", 10156, 213, 184, 0x1ba283cdcd522510},
	}
	starts := map[string]*mig.MIG{}
	for _, g := range golden {
		m, ok := starts[g.circuit]
		if !ok {
			spec, found := circuits.ByName(g.circuit)
			if !found {
				t.Fatalf("suite circuit %s missing", g.circuit)
			}
			m = exp.PrepareStart(spec)
			starts[g.circuit] = m
		}
		p, err := engine.Preset(g.script)
		if err != nil {
			t.Fatal(err)
		}
		out, st, err := p.Run(m)
		if err != nil {
			t.Fatalf("%s on %s: %v", g.script, g.circuit, err)
		}
		h := fnv.New64a()
		if err := out.WriteText(h); err != nil {
			t.Fatal(err)
		}
		if out.Size() != g.size || out.Depth() != g.depth || st.ExtractSaved != g.saved || h.Sum64() != g.hash {
			t.Errorf("%s on %s: size %d, depth %d, saved %d, hash %#x; want %d, %d, %d, %#x",
				g.script, g.circuit, out.Size(), out.Depth(), st.ExtractSaved, h.Sum64(),
				g.size, g.depth, g.saved, g.hash)
		}
	}
}
