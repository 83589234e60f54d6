package depthopt

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mighash/internal/circuits"
	"mighash/internal/mig"
	"mighash/internal/tt"
)

// TestAxiomIdentities verifies the three Ω axioms as truth-table
// identities over all assignments of five 4-variable functions — the
// rewriter is only sound if these transcriptions are exact.
func TestAxiomIdentities(t *testing.T) {
	f := func(xb, yb, zb, ub, vb uint16) bool {
		n := 4
		x := tt.New(n, uint64(xb))
		y := tt.New(n, uint64(yb))
		z := tt.New(n, uint64(zb))
		u := tt.New(n, uint64(ub))
		v := tt.New(n, uint64(vb))
		assoc := tt.Maj(x, u, tt.Maj(y, u, z)) == tt.Maj(z, u, tt.Maj(y, u, x))
		compl := tt.Maj(x, u, tt.Maj(y, u.Not(), z)) == tt.Maj(x, u, tt.Maj(y, x, z))
		distr := tt.Maj(x, y, tt.Maj(u, v, z)) == tt.Maj(tt.Maj(x, y, u), tt.Maj(x, y, v), z)
		return assoc && compl && distr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func randomMIG(rng *rand.Rand, pis, gates, pos int) *mig.MIG {
	m := mig.New(pis)
	sigs := []mig.Lit{mig.Const0}
	for i := 0; i < pis; i++ {
		sigs = append(sigs, m.Input(i))
	}
	for g := 0; g < gates; g++ {
		pick := func() mig.Lit { return sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(3) == 0) }
		sigs = append(sigs, m.Maj(pick(), pick(), pick()))
	}
	for o := 0; o < pos; o++ {
		m.AddOutput(sigs[len(sigs)-1-rng.Intn(4)])
	}
	return m
}

// TestOptimizePreservesFunction checks soundness by exhaustive simulation
// on ≤6-input graphs.
func TestOptimizePreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 15; round++ {
		m := randomMIG(rng, 4+rng.Intn(3), 30+rng.Intn(80), 2)
		want := m.Simulate()
		got, st := Optimize(m, Options{})
		sim := got.Simulate()
		for i := range want {
			if sim[i] != want[i] {
				t.Fatalf("round %d: output %d changed (%v → %v), stats %v", round, i, want[i], sim[i], st)
			}
		}
		if st.DepthAfter > st.DepthBefore {
			t.Errorf("round %d: depth grew %d→%d", round, st.DepthBefore, st.DepthAfter)
		}
	}
}

// TestOptimizePreservesFunctionCEC re-checks on a wide circuit with the
// SAT equivalence checker.
func TestOptimizePreservesFunctionCEC(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomMIG(rng, 16, 300, 4)
	got, _ := Optimize(m, Options{})
	eq, ce, err := mig.Equivalent(m, got, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("optimization changed the function: %v", ce)
	}
}

// TestRippleAdderDepthShrinks is the flagship behaviour from [3]/[4]: the
// associativity/distributivity rules must flatten a ripple-carry chain
// substantially.
func TestRippleAdderDepthShrinks(t *testing.T) {
	m := circuits.BuildAdder()
	before := m.Depth()
	opt, st := Optimize(m, Options{SizeFactor: 2})
	if st.DepthAfter >= before*3/4 {
		t.Errorf("adder depth only improved %d→%d; want at least 25%%", before, st.DepthAfter)
	}
	t.Logf("adder: %v", st)
	// Functional spot-check on random vectors (exhaustive is impossible at
	// 256 inputs; full CEC of adders is exercised in TestAdderCEC).
	rng := rand.New(rand.NewSource(13))
	for v := 0; v < 8; v++ {
		in := make([]bool, 256)
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		a, b := m.EvalBits(in), opt.EvalBits(in)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vector %d output %d differs", v, i)
			}
		}
	}
}

// TestAdderCEC proves full equivalence of the optimized 16-bit adder.
func TestAdderCEC(t *testing.T) {
	b := circuits.NewBuilder(32)
	sum, cout := b.Add(b.Inputs(0, 16), b.Inputs(16, 16), mig.Const0)
	b.Outputs(sum)
	b.M.AddOutput(cout)
	m := b.M
	opt, st := Optimize(m, Options{SizeFactor: 2})
	eq, ce, err := mig.Equivalent(m, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("16-bit adder broken by depth optimization: %v (stats %v)", ce, st)
	}
	if st.DepthAfter >= st.DepthBefore {
		t.Errorf("no depth improvement on 16-bit adder: %v", st)
	}
}

// TestSizeFactorRespected bounds the growth from distributivity.
func TestSizeFactorRespected(t *testing.T) {
	m := circuits.BuildAdder()
	_, st := Optimize(m, Options{SizeFactor: 1.1})
	if limit := int(float64(st.SizeBefore) * 1.1); st.SizeAfter > limit {
		t.Errorf("size %d exceeds budget %d", st.SizeAfter, limit)
	}
}

// TestOptimizeResultsOwnTheirStorage: every rebuild pass of an Optimize
// call reuses one builder, so each result must be a copy. Two results
// are kept and re-checked after later calls: each keeps its text, is
// well-formed, computes its input's functions and has the size and
// depth its stats report.
func TestOptimizeResultsOwnTheirStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type kept struct {
		m    *mig.MIG
		text string
	}
	var results []kept
	for round := 0; round < 2; round++ {
		m := randomMIG(rng, 5+rng.Intn(2), 80+rng.Intn(80), 3)
		got, st := Optimize(m, Options{SizeFactor: 2})
		if st.Passes < 2 {
			t.Fatalf("round %d: %d passes; the builder was never reused", round, st.Passes)
		}
		if err := mig.Check(got); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if st.SizeAfter != got.Size() || st.DepthAfter != got.Depth() || st.SizeBefore != m.Size() || st.DepthBefore != m.Depth() {
			t.Fatalf("round %d: stats %v disagree with the graphs (%d/%d → %d/%d)",
				round, st, m.Size(), m.Depth(), got.Size(), got.Depth())
		}
		want, sim := m.Simulate(), got.Simulate()
		for i := range want {
			if sim[i] != want[i] {
				t.Fatalf("round %d: output %d changed", round, i)
			}
		}
		var b strings.Builder
		if err := got.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		results = append(results, kept{got, b.String()})
	}
	for i, k := range results {
		var b strings.Builder
		if err := k.m.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != k.text {
			t.Fatalf("result %d changed after a later Optimize call", i)
		}
	}
}
