package mighash_test

import (
	"context"
	"math/rand"
	"testing"

	"mighash"
)

// These integration tests exercise the public façade only — everything an
// external user of the library can reach — across the full pipeline:
// word-level construction → depth optimization → functional hashing →
// technology mapping, with SAT-based equivalence checking throughout.

func loadDB(t testing.TB) *mighash.Database {
	t.Helper()
	d, err := mighash.LoadDatabase()
	if err != nil {
		t.Fatalf("embedded database: %v", err)
	}
	return d
}

// TestPublicPipeline runs the whole flow on a 16-bit adder-comparator.
func TestPublicPipeline(t *testing.T) {
	b := mighash.NewCircuitBuilder(32)
	x := b.Inputs(0, 16)
	y := b.Inputs(16, 16)
	sum, cout := b.Add(x, y, mighash.Const0)
	b.Outputs(sum)
	b.M.AddOutput(cout)
	b.M.AddOutput(b.Geq(x, y))
	m := b.M

	flat, dst := mighash.OptimizeDepth(m, mighash.DepthOptions{SizeFactor: 4})
	if dst.DepthAfter >= dst.DepthBefore {
		t.Errorf("no depth improvement: %v", dst)
	}

	d := loadDB(t)
	for _, v := range []struct {
		name string
		opt  mighash.RewriteOptions
	}{
		{"TF", mighash.VariantTF}, {"T", mighash.VariantT},
		{"TFD", mighash.VariantTFD}, {"TD", mighash.VariantTD},
		{"BF", mighash.VariantBF},
	} {
		opt, st := mighash.Optimize(flat, d, v.opt)
		if st.SizeAfter > st.SizeBefore {
			t.Errorf("%s: size grew %v", v.name, st)
		}
		eq, ce, err := mighash.Equivalent(m, opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("%s: pipeline broke the circuit: %v", v.name, ce)
		}
		cover := mighash.MapLUT(opt, mighash.MapOptions{})
		if cover.Area == 0 || cover.Depth == 0 {
			t.Errorf("%s: degenerate cover %v", v.name, cover)
		}
	}
}

// TestPublicEngine drives the batch-optimization engine through the
// façade: a preset script over batch jobs, with lookup memo stats surfaced.
func TestPublicEngine(t *testing.T) {
	build := func() *mighash.MIG {
		b := mighash.NewCircuitBuilder(16)
		sum, cout := b.Add(b.Inputs(0, 8), b.Inputs(8, 8), mighash.Const0)
		b.Outputs(sum)
		b.M.AddOutput(cout)
		return b.M
	}
	p, err := mighash.PipelineScript("resyn")
	if err != nil {
		t.Fatal(err)
	}
	p.DB = loadDB(t)
	jobs := []mighash.BatchJob{
		{Name: "adder8a", M: build()},
		{Name: "adder8b", M: build()},
	}
	results, err := mighash.RunBatch(context.Background(), p, jobs, mighash.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Name != jobs[i].Name {
			t.Fatalf("result %d out of order: %q", i, r.Name)
		}
		eq, ce, err := mighash.Equivalent(jobs[i].M, r.M, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("%s: engine broke the circuit: %v", r.Name, ce)
		}
		if r.Stats.CacheHits+r.Stats.CacheMisses == 0 {
			t.Errorf("%s: no lookup memo traffic recorded", r.Name)
		}
	}
	if names := mighash.PipelineScripts(); len(names) < 6 {
		t.Errorf("script registry too small: %v", names)
	}
	cone := mighash.SplitOutputs(jobs[0].M, "adder8a")
	if len(cone) != jobs[0].M.NumPOs() {
		t.Errorf("SplitOutputs: %d cones for %d outputs", len(cone), jobs[0].M.NumPOs())
	}
}

// TestPublicExactSynthesis drives the exact engine through the façade.
func TestPublicExactSynthesis(t *testing.T) {
	maj := mighash.NewTT(3, 0xE8)
	m, err := mighash.ExactMinimum(context.Background(), maj, mighash.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 1 {
		t.Errorf("majority needs %d gates, want 1", m.Size())
	}
	if got, want := mighash.TheoremBound(6), 37; got != want {
		t.Errorf("TheoremBound(6) = %d, want %d", got, want)
	}
}

// TestPublicDatabase checks classification and database access.
func TestPublicDatabase(t *testing.T) {
	if got := mighash.NumNPNClasses4(); got != 222 {
		t.Fatalf("NumNPNClasses4 = %d", got)
	}
	d := loadDB(t)
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 50; i++ {
		f := mighash.NewTT(4, rng.Uint64()&0xFFFF)
		rep, tr := mighash.CanonizeNPN(f)
		if tr.Apply(rep) != f {
			t.Fatalf("transform does not reconstruct %v", f)
		}
		if d.Size(f) < 0 {
			t.Fatalf("class of %v missing from database", f)
		}
	}
}

// TestPublicBenchmarks spot-checks the generator registry.
func TestPublicBenchmarks(t *testing.T) {
	if got := len(mighash.Benchmarks()); got != 8 {
		t.Fatalf("%d benchmarks, want 8", got)
	}
	spec, ok := mighash.BenchmarkByName("Sine")
	if !ok {
		t.Fatal("Sine missing")
	}
	m := spec.Build()
	if m.NumPIs() != 24 || m.NumPOs() != 25 {
		t.Fatalf("Sine signature %d/%d", m.NumPIs(), m.NumPOs())
	}
	in := make([]bool, 24)
	got, want := m.EvalBits(in), spec.Model(in)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sine(0) output %d mismatch", i)
		}
	}
}
