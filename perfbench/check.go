package main

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"

	"mighash/internal/circuits"
	"mighash/internal/mig"
)

// checkWords is the number of 64-pattern words every result is simulated
// on against the circuit's bit-exact software model.
const checkWords = 4

// modelVectors are seeded input patterns of one circuit together with the
// outputs its software model (circuits.Spec.Model, independent of the
// optimizer) computes for them, one 64-pattern word per input or output.
type modelVectors struct {
	spec circuits.Spec
	in   [][]uint64 // [word][input]
	want [][]uint64 // [word][output]
}

func newModelVectors(spec circuits.Spec, seed int64) *modelVectors {
	rng := rand.New(rand.NewSource(seed))
	v := &modelVectors{spec: spec}
	assign := make([]bool, spec.NumPIs)
	for w := 0; w < checkWords; w++ {
		in := make([]uint64, spec.NumPIs)
		for i := range in {
			in[i] = rng.Uint64()
		}
		want := make([]uint64, spec.NumPOs)
		for b := 0; b < 64; b++ {
			for i := range assign {
				assign[i] = in[i]>>b&1 == 1
			}
			for o, bit := range spec.Model(assign) {
				if bit {
					want[o] |= 1 << b
				}
			}
		}
		v.in = append(v.in, in)
		v.want = append(v.want, want)
	}
	return v
}

// check simulates m, whose input perm[i] carries the circuit's input i
// (nil: identity) and whose output j computes the circuit's output outs[j]
// (nil: all outputs in order), and compares it with the model.
func (v *modelVectors) check(m *mig.MIG, perm, outs []int) error {
	if m.NumPIs() != v.spec.NumPIs {
		return fmt.Errorf("%s: result has %d inputs, want %d", v.spec.Name, m.NumPIs(), v.spec.NumPIs)
	}
	if outs == nil && m.NumPOs() != v.spec.NumPOs || outs != nil && m.NumPOs() != len(outs) {
		return fmt.Errorf("%s: result has %d outputs", v.spec.Name, m.NumPOs())
	}
	in := make([]uint64, m.NumPIs())
	for w := range v.in {
		for i, x := range v.in[w] {
			if perm != nil {
				in[perm[i]] = x
			} else {
				in[i] = x
			}
		}
		for j, got := range m.SimulateWords(in) {
			o := j
			if outs != nil {
				o = outs[j]
			}
			if diff := got ^ v.want[w][o]; diff != 0 {
				return fmt.Errorf("%s: output %d differs from the model on %d of 64 patterns of word %d",
					v.spec.Name, o, bits.OnesCount64(diff), w)
			}
		}
	}
	return nil
}

// signature fingerprints a result graph cheaply: its size, depth and the
// hash of its outputs over one fixed pattern word per input. Rounds that
// optimize the same job must produce equal signatures.
func signature(m *mig.MIG) uint64 {
	in := make([]uint64, m.NumPIs())
	x := uint64(0x9e3779b97f4a7c15)
	for i := range in {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		in[i] = x
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(m.Size()))
	put(uint64(m.Depth()))
	for _, w := range m.SimulateWords(in) {
		put(w)
	}
	return h.Sum64()
}

// permuteInputs rebuilds m with its input i moved to input perm[i]: the
// same circuit under other primary-input labels.
func permuteInputs(m *mig.MIG, perm []int) *mig.MIG {
	res := mig.New(m.NumPIs())
	sig := make([]mig.Lit, m.NumNodes())
	sig[0] = mig.Const0
	for i := 0; i < m.NumPIs(); i++ {
		sig[m.Input(i).ID()] = res.Input(perm[i])
	}
	at := func(l mig.Lit) mig.Lit { return sig[l.ID()].NotIf(l.Comp()) }
	for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
		f := m.Fanin(mig.ID(id))
		sig[id] = res.Maj(at(f[0]), at(f[1]), at(f[2]))
	}
	for _, o := range m.Outputs() {
		res.AddOutput(at(o))
	}
	return res
}
