package mig

import (
	"fmt"
	"slices"

	"mighash/internal/sim"
	"mighash/internal/tt"
)

// Simulate computes the truth table of every primary output. It requires
// NumPIs() <= tt.MaxVars; larger MIGs should use SimulateWords.
func (m *MIG) Simulate() []tt.TT {
	if m.numPI > tt.MaxVars {
		panic(fmt.Sprintf("mig: Simulate supports at most %d inputs, have %d", tt.MaxVars, m.numPI))
	}
	n := m.numPI
	tts := make([]tt.TT, len(m.fanin))
	tts[0] = tt.Const0(n)
	for i := 0; i < n; i++ {
		tts[i+1] = tt.Var(n, i)
	}
	for id := n + 1; id < len(m.fanin); id++ {
		f := m.fanin[id]
		a := tts[f[0].ID()].NotIf(f[0].Comp())
		b := tts[f[1].ID()].NotIf(f[1].Comp())
		c := tts[f[2].ID()].NotIf(f[2].Comp())
		tts[id] = tt.Maj(a, b, c)
	}
	out := make([]tt.TT, len(m.outputs))
	for i, o := range m.outputs {
		out[i] = tts[o.ID()].NotIf(o.Comp())
	}
	return out
}

// SimulateWords evaluates the MIG bit-parallel over 64 input patterns. The
// inputs slice holds one 64-bit pattern word per primary input; the result
// holds one word per primary output. This is the workhorse for randomized
// equivalence testing of circuits too wide for exhaustive simulation.
func (m *MIG) SimulateWords(inputs []uint64) []uint64 {
	if len(inputs) != m.numPI {
		panic(fmt.Sprintf("mig: SimulateWords needs %d input words, got %d", m.numPI, len(inputs)))
	}
	vals := make([]uint64, len(m.fanin))
	copy(vals[1:], inputs)
	for id := m.numPI + 1; id < len(m.fanin); id++ {
		f := m.fanin[id]
		a := vals[f[0].ID()]
		if f[0].Comp() {
			a = ^a
		}
		b := vals[f[1].ID()]
		if f[1].Comp() {
			b = ^b
		}
		c := vals[f[2].ID()]
		if f[2].Comp() {
			c = ^c
		}
		vals[id] = a&b | a&c | b&c
	}
	out := make([]uint64, len(m.outputs))
	for i, o := range m.outputs {
		v := vals[o.ID()]
		if o.Comp() {
			v = ^v
		}
		out[i] = v
	}
	return out
}

// EvalBits evaluates the MIG on a single assignment given as one bit per
// primary input (bit i of the slice element i>>6) and returns one bool per
// output. Convenience wrapper used by examples and tests.
func (m *MIG) EvalBits(assignment []bool) []bool {
	if len(assignment) != m.numPI {
		panic(fmt.Sprintf("mig: EvalBits needs %d inputs, got %d", m.numPI, len(assignment)))
	}
	words := make([]uint64, m.numPI)
	for i, v := range assignment {
		if v {
			words[i] = 1
		}
	}
	res := m.SimulateWords(words)
	out := make([]bool, len(res))
	for i, w := range res {
		out[i] = w&1 == 1
	}
	return out
}

// SimCircuit compiles the MIG into the flattened form of the word-parallel
// simulation engine. Literal encodings are identical, so compilation is one
// copy pass; the result is immutable and safe for concurrent sweeps. Dead
// gates are carried along — Run's cost is proportional to NumNodes, and
// callers that care compact first.
func (m *MIG) SimCircuit() *sim.Circuit {
	c := &sim.Circuit{}
	m.compileSim(c)
	return c
}

// compileSim is SimCircuit into c, reusing the capacity of its slices.
func (m *MIG) compileSim(c *sim.Circuit) {
	c.NumPIs = m.numPI
	c.Fanin = slices.Grow(c.Fanin[:0], m.NumGates())
	for id := m.numPI + 1; id < len(m.fanin); id++ {
		f := m.fanin[id]
		c.Fanin = append(c.Fanin, [3]sim.Lit{sim.Lit(f[0]), sim.Lit(f[1]), sim.Lit(f[2])})
	}
	c.Outputs = slices.Grow(c.Outputs[:0], len(m.outputs))
	for _, o := range m.outputs {
		c.Outputs = append(c.Outputs, sim.Lit(o))
	}
}

// ConeTT computes the local function of root in terms of the given leaves:
// leaf i is mapped to variable i. Every path from root must stop at a leaf
// or the constant node; the call panics if the cone escapes the leaves,
// which would indicate an invalid cut.
func (m *MIG) ConeTT(root Lit, leaves []ID) tt.TT {
	k := len(leaves)
	if k > tt.MaxVars {
		panic(fmt.Sprintf("mig: cone function with %d leaves exceeds %d variables", k, tt.MaxVars))
	}
	memo := make(map[ID]tt.TT, 8)
	memo[0] = tt.Const0(k)
	for i, l := range leaves {
		memo[l] = tt.Var(k, i)
	}
	var eval func(id ID) tt.TT
	eval = func(id ID) tt.TT {
		if f, ok := memo[id]; ok {
			return f
		}
		if !m.IsGate(id) {
			panic(fmt.Sprintf("mig: cone of %v escapes its leaves at node %d", root, id))
		}
		f := m.fanin[id]
		r := tt.Maj(
			eval(f[0].ID()).NotIf(f[0].Comp()),
			eval(f[1].ID()).NotIf(f[1].Comp()),
			eval(f[2].ID()).NotIf(f[2].Comp()),
		)
		memo[id] = r
		return r
	}
	return eval(root.ID()).NotIf(root.Comp())
}
