package rewrite

import (
	"math/rand"
	"testing"

	"mighash/internal/db"
	"mighash/internal/mig"
	"mighash/internal/tt"
)

// variants lists the paper's five configurations by acronym.
var variants = []struct {
	name string
	opt  Options
}{
	{"TF", TF}, {"T", T}, {"TFD", TFD}, {"TD", TD}, {"BF", BF},
}

func loadDB(t testing.TB) *db.DB {
	t.Helper()
	d, err := db.Load()
	if err != nil {
		t.Fatalf("embedded database unavailable (run cmd/migdb): %v", err)
	}
	return d
}

// randomMIG builds a pseudo-random DAG with the given inputs, gate budget
// and outputs. Gates pick distinct random fanins among earlier signals, so
// the result is representative of post-strash netlists.
func randomMIG(rng *rand.Rand, pis, gates, pos int) *mig.MIG {
	m := mig.New(pis)
	sigs := []mig.Lit{mig.Const0}
	for i := 0; i < pis; i++ {
		sigs = append(sigs, m.Input(i))
	}
	for g := 0; g < gates; g++ {
		a := sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(4) == 0)
		b := sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(4) == 0)
		c := sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(4) == 0)
		sigs = append(sigs, m.Maj(a, b, c))
	}
	for o := 0; o < pos; o++ {
		m.AddOutput(sigs[len(sigs)-1-rng.Intn(min(len(sigs), 8))].NotIf(rng.Intn(2) == 0))
	}
	return m
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestVariantsPreserveFunction is the core soundness property: every
// variant must return an MIG computing the same functions, verified by
// exhaustive simulation (n ≤ 6 inputs makes this exact, not sampled).
func TestVariantsPreserveFunction(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 12; round++ {
		pis := 4 + rng.Intn(3)
		m := randomMIG(rng, pis, 20+rng.Intn(60), 1+rng.Intn(4))
		want := m.Simulate()
		for _, v := range variants {
			got, st := Run(m, d, v.opt)
			sim := got.Simulate()
			for i := range want {
				if sim[i] != want[i] {
					t.Fatalf("round %d %s: output %d computes %v, want %v", round, v.name, i, sim[i], want[i])
				}
			}
			if st.SizeAfter > st.SizeBefore {
				t.Errorf("round %d %s: size increased %d→%d", round, v.name, st.SizeBefore, st.SizeAfter)
			}
		}
	}
}

// TestVariantsPreserveFunctionCEC re-checks soundness on wider graphs with
// the SAT-based equivalence checker, which scales past 6 inputs.
func TestVariantsPreserveFunctionCEC(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 4; round++ {
		m := randomMIG(rng, 10+rng.Intn(6), 150+rng.Intn(150), 3)
		for _, v := range variants {
			got, _ := Run(m, d, v.opt)
			eq, ce, err := mig.Equivalent(m, got, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatalf("round %d %s: rewrite changed the function, counterexample %v", round, v.name, ce)
			}
		}
	}
}

// naive4 builds a deliberately wasteful single-output MIG for a 4-variable
// function: a disjunction of minterm conjunctions.
func naive4(f tt.TT) *mig.MIG {
	m := mig.New(4)
	out := mig.Const0
	for j := uint(0); j < 16; j++ {
		if !f.Eval(j) {
			continue
		}
		term := mig.Const1
		for i := 0; i < 4; i++ {
			term = m.And(term, m.Input(i).NotIf(j>>uint(i)&1 == 0))
		}
		out = m.Or(out, term)
	}
	m.AddOutput(out)
	return m
}

// TestTopDownReachesOptimumOnSingleCone: with a single output whose
// 4-input cut covers the whole graph, Algorithm 1 must recover the
// database optimum exactly — the defining property of functional hashing.
func TestTopDownReachesOptimumOnSingleCone(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 30; round++ {
		f := tt.New(4, uint64(rng.Intn(1<<16)))
		m := naive4(f)
		if m.Size() <= d.Size(f) {
			continue // trivially small function; nothing to test
		}
		got, st := Run(m, d, T)
		if want := d.Size(f); st.SizeAfter != want {
			t.Errorf("f=%v: top-down reached size %d, optimum %d", f, st.SizeAfter, want)
		}
		if sim := got.Simulate()[0]; sim != f {
			t.Fatalf("f=%v: optimized MIG computes %v", f, sim)
		}
	}
}

// TestFullAdderStaysMinimal: Fig. 1's full adder is already minimum; no
// variant may make it bigger.
func TestFullAdderStaysMinimal(t *testing.T) {
	d := loadDB(t)
	m := mig.New(3)
	s, c := m.FullAdder(m.Input(0), m.Input(1), m.Input(2))
	m.AddOutput(s)
	m.AddOutput(c)
	for _, v := range variants {
		_, st := Run(m, d, v.opt)
		if st.SizeAfter > 3 {
			t.Errorf("%s: full adder grew to %d gates", v.name, st.SizeAfter)
		}
	}
}

// TestDepthHeuristicRejectsDeepReplacement constructs a cone whose minimum
// MIG is deeper than the existing structure and checks that the
// depth-preserving variants leave it alone while plain T replaces it.
func TestDepthHeuristicRejectsDeepReplacement(t *testing.T) {
	d := loadDB(t)
	// Find a class whose optimal depth exceeds 2, then express it as a
	// depth-2 (but larger) structure if possible: instead, synthesize the
	// redundant form and compare TD against T on depth behaviour.
	rng := rand.New(rand.NewSource(19))
	sawDepthReject := false
	for round := 0; round < 60 && !sawDepthReject; round++ {
		f := tt.New(4, uint64(rng.Intn(1<<16)))
		m := naive4(f)
		_, stT := Run(m, d, T)
		_, stTD := Run(m, d, TD)
		if stTD.SizeAfter > stT.SizeAfter && stTD.DepthAfter <= stT.DepthAfter {
			sawDepthReject = true
		}
	}
	if !sawDepthReject {
		t.Log("depth heuristic never traded size for depth on this sample (acceptable but unusual)")
	}
}

// TestRewriteIdempotentOnOptimum: re-running a variant on its own output
// must not change sizes (fixpoint on a single pass's result may shrink
// further, but never grow).
func TestRewriteNeverGrowsOnSecondPass(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(23))
	m := randomMIG(rng, 8, 120, 2)
	for _, v := range variants {
		once, st1 := Run(m, d, v.opt)
		_, st2 := Run(once, d, v.opt)
		if st2.SizeAfter > st1.SizeAfter {
			t.Errorf("%s: second pass grew %d→%d", v.name, st1.SizeAfter, st2.SizeAfter)
		}
	}
}

// TestBottomUpRequiresFFR documents the API contract.
func TestBottomUpRequiresFFR(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bottom-up without FFR did not panic")
		}
	}()
	d := loadDB(t)
	m := mig.New(3)
	m.AddOutput(m.Maj(m.Input(0), m.Input(1), m.Input(2)))
	Run(m, d, Options{BottomUp: true})
}

// TestVariantNames pins the pass grammar: ParseVariant inverts
// VariantName on every one of the 25 names (the paper's five acronyms,
// the top-down ones at K = 5 and with choice-aware extraction under
// either objective), and rejects everything outside it.
func TestVariantNames(t *testing.T) {
	for _, v := range variants {
		if got := VariantName(v.opt); got != v.name {
			t.Errorf("VariantName = %q, want %q", got, v.name)
		}
	}
	names := VariantNames()
	if len(names) != 25 {
		t.Fatalf("grammar has %d names, want 25: %v", len(names), names)
	}
	for _, name := range names {
		o, ok := ParseVariant(name)
		if !ok {
			t.Errorf("ParseVariant(%q) rejected a listed name", name)
			continue
		}
		if got := VariantName(o); got != name {
			t.Errorf("VariantName(ParseVariant(%q)) = %q", name, got)
		}
		if back, _ := ParseVariant(VariantName(o)); back != o {
			t.Errorf("ParseVariant(VariantName(%+v)) = %+v", o, back)
		}
	}
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"TF5", Options{FFR: true, K: 5}},
		{"TD5", Options{DepthPreserve: true, K: 5}},
	} {
		if got := VariantName(tc.opt); got != tc.name {
			t.Errorf("VariantName(%+v) = %q, want %q", tc.opt, got, tc.name)
		}
		if o, ok := ParseVariant(tc.name); !ok || o != tc.opt {
			t.Errorf("ParseVariant(%q) = %+v, %v, want %+v", tc.name, o, ok, tc.opt)
		}
	}
	for _, bad := range []string{"BF5", "BFx", "B", "TFDX", "x", "", "depthopt", "TF55", "TFxx", "tf"} {
		if o, ok := ParseVariant(bad); ok {
			t.Errorf("ParseVariant(%q) = %+v, want rejection", bad, o)
		}
	}
}

// variant resolves a grammar name, for tests that run one configuration.
func variant(name string) Options {
	o, ok := ParseVariant(name)
	if !ok {
		panic("rewrite: no variant " + name)
	}
	return o
}

// TestStatsString smoke-checks the report formatting.
func TestStatsString(t *testing.T) {
	s := Stats{Variant: "TF", SizeBefore: 10, SizeAfter: 8, DepthBefore: 4, DepthAfter: 4, Replacements: 2}
	if got := s.String(); got == "" {
		t.Fatal("empty stats string")
	}
}
