// Benchmarks regenerating every table and figure of the paper, plus
// ablations of internal design choices. Run with
//
//	go test -bench=. -benchmem
//
// Naming: BenchmarkTableX / BenchmarkFigX mirror the paper's artifacts;
// BenchmarkAblation* quantify internal design choices.
package mighash

import (
	"context"
	"runtime"
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/db"
	"mighash/internal/depthopt"
	"mighash/internal/engine"
	"mighash/internal/exact"
	"mighash/internal/exp"
	"mighash/internal/mapper"
	"mighash/internal/mig"
	"mighash/internal/npn"
	"mighash/internal/rewrite"
	"mighash/internal/sat"
	"mighash/internal/tt"
)

// ------------------------------------------------------------- Figures

// BenchmarkFig1FullAdder builds the paper's Fig. 1 MIG.
func BenchmarkFig1FullAdder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := mig.New(3)
		s, c := m.FullAdder(m.Input(0), m.Input(1), m.Input(2))
		m.AddOutput(s)
		m.AddOutput(c)
		if m.Size() != 3 || m.Depth() != 2 {
			b.Fatal("full adder is not the Fig. 1 structure")
		}
	}
}

// BenchmarkFig2S02 instantiates the optimal 7-gate MIG of the hardest
// NPN class from the database.
func BenchmarkFig2S02(b *testing.B) {
	d := db.MustLoad()
	f := exp.S02()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mig.New(4)
		l, ok := d.Build(m, f, []mig.Lit{m.Input(0), m.Input(1), m.Input(2), m.Input(3)})
		if !ok {
			b.Fatal("S0,2 missing")
		}
		m.AddOutput(l)
		if m.Size() != 7 {
			b.Fatalf("size %d", m.Size())
		}
	}
}

// ------------------------------------------------------------- Table I

// BenchmarkTableI_ExactSynthesisUpTo5 re-measures the exact-synthesis
// ladder for every class of optimum size ≤ 5 (214 of the 222 classes;
// the remaining 36 classes need minutes and are covered by cmd/migdb and
// `migbench -table 1 -live`).
func BenchmarkTableI_ExactSynthesisUpTo5(b *testing.B) {
	d := db.MustLoad()
	var reps []tt.TT
	for _, e := range d.Entries() {
		if e.Size() <= 5 {
			reps = append(reps, e.Rep)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := reps[i%len(reps)]
		if _, err := exact.Minimum(context.Background(), rep, exact.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI_DecisionUnsat measures one UNSAT ladder step (k = 4
// for a class of optimum size 5), the dominant cost of Table I.
func BenchmarkTableI_DecisionUnsat(b *testing.B) {
	d := db.MustLoad()
	var rep tt.TT
	for _, e := range d.Entries() {
		if e.Size() == 5 {
			rep = e.Rep
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _ := exact.Decide(context.Background(), rep, 4, exact.Options{})
		if st != sat.Unsat {
			b.Fatalf("k=4 decision returned %v", st)
		}
	}
}

// ------------------------------------------------------------- Table II

// BenchmarkTableII_Lengths runs the L(f) dynamic program for all 65536
// functions.
func BenchmarkTableII_Lengths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if l := exact.MinLengths(4); l[0x6996] == 0 {
			b.Fatal("parity cannot have length 0")
		}
	}
}

// BenchmarkTableII_Depths runs the D(f) reachability engine for all
// 65536 functions.
func BenchmarkTableII_Depths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if d := exact.MinDepths(4); d[0x6996] != 4 {
			b.Fatal("parity must have depth 4")
		}
	}
}

// BenchmarkTableII_NPNClassification canonicalizes every 4-variable
// function (the classification pass behind Tables I and II).
func BenchmarkTableII_NPNClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := 0
		for v := 0; v < 1<<16; v++ {
			if npn.ClassOf4(tt.New(4, uint64(v))).Bits == uint64(v) {
				n++
			}
		}
		if n != 222 {
			b.Fatalf("%d classes", n)
		}
	}
}

// ------------------------------------------------------- Tables III / IV

// tableIIIStart caches the prepared starting points per benchmark.
var tableIIIStart = map[string]*mig.MIG{}

func startingPoint(b *testing.B, name string) *mig.MIG {
	b.Helper()
	if m, ok := tableIIIStart[name]; ok {
		return m
	}
	spec, ok := circuits.ByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %q", name)
	}
	m := exp.PrepareStart(spec)
	tableIIIStart[name] = m
	return m
}

// benchVariant runs one functional-hashing variant on one benchmark,
// driven through the engine as the production flow does. One single-pass
// pipeline iteration is a bare rewrite.Run plus the engine's fixed
// per-run overhead (a fresh workspace, lookup memo and pipeline
// bookkeeping), so these numbers are not directly comparable with
// pre-engine baselines.
func benchVariant(b *testing.B, name string, opt rewrite.Options) {
	start := startingPoint(b, name)
	p := engine.New(engine.RewritePass(opt))
	p.MaxIterations = 1
	p.DB = db.MustLoad()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := p.Run(start)
		if err != nil {
			b.Fatal(err)
		}
		// Guard the pass itself: PipelineStats.SizeAfter reports the kept
		// best and can never regress, but the raw pass output can.
		for _, ps := range st.Passes {
			if ps.SizeAfter > ps.SizeBefore {
				b.Fatalf("pass grew the graph: %v", ps)
			}
		}
	}
}

func BenchmarkTableIII_Sine_TF(b *testing.B)  { benchVariant(b, "Sine", rewrite.TF) }
func BenchmarkTableIII_Sine_T(b *testing.B)   { benchVariant(b, "Sine", rewrite.T) }
func BenchmarkTableIII_Sine_TFD(b *testing.B) { benchVariant(b, "Sine", rewrite.TFD) }
func BenchmarkTableIII_Sine_TD(b *testing.B)  { benchVariant(b, "Sine", rewrite.TD) }
func BenchmarkTableIII_Sine_BF(b *testing.B)  { benchVariant(b, "Sine", rewrite.BF) }
func BenchmarkTableIII_Max_BF(b *testing.B)   { benchVariant(b, "Max", rewrite.BF) }
func BenchmarkTableIII_Adder_BF(b *testing.B) { benchVariant(b, "Adder", rewrite.BF) }

// BenchmarkTableIII_PrepareStart measures the starting-point generation
// (circuit construction plus algebraic depth optimization).
func BenchmarkTableIII_PrepareStart(b *testing.B) {
	spec, _ := circuits.ByName("Max")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := exp.PrepareStart(spec)
		if m.Size() == 0 {
			b.Fatal("empty start")
		}
	}
}

// BenchmarkTableIV_Mapping measures the 6-LUT cover of the Sine
// benchmark's BF-optimized MIG.
func BenchmarkTableIV_Mapping(b *testing.B) {
	d := db.MustLoad()
	opt, _ := rewrite.Run(startingPoint(b, "Sine"), d, rewrite.BF)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := mapper.Map(opt, mapper.Options{})
		if r.Area == 0 {
			b.Fatal("empty cover")
		}
	}
}

// -------------------------------------------------------------- Engine

// BenchmarkEngine_ResynSine runs the composite resyn script to
// convergence on the Sine benchmark: the engine's iterated-pipeline
// overhead and the run's lookup memo in one number.
func BenchmarkEngine_ResynSine(b *testing.B) {
	start := startingPoint(b, "Sine")
	p, err := engine.Preset("resyn")
	if err != nil {
		b.Fatal(err)
	}
	p.DB = db.MustLoad()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := p.Run(start)
		if err != nil {
			b.Fatal(err)
		}
		if st.CacheHits == 0 {
			b.Fatalf("resyn recorded no cache hits: %v", st)
		}
	}
}

// BenchmarkEngine_Batch1 vs BatchNumCPU measure the worker-pool speedup
// of optimizing the two small arithmetic benchmarks concurrently.
func benchBatch(b *testing.B, workers int) {
	jobs := []engine.Job{
		{Name: "Sine", M: startingPoint(b, "Sine")},
		{Name: "Max", M: startingPoint(b, "Max")},
	}
	p, err := engine.Preset("size")
	if err != nil {
		b.Fatal(err)
	}
	p.DB = db.MustLoad()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := engine.RunBatch(context.Background(), p, jobs, engine.BatchOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

func BenchmarkEngine_Batch1(b *testing.B)      { benchBatch(b, 1) }
func BenchmarkEngine_BatchNumCPU(b *testing.B) { benchBatch(b, runtime.NumCPU()) }

// BenchmarkEngine_LookupMemoHit vs NPNLookupUncached isolate what one
// lookup memo hit saves over a fresh canonicalization + database lookup.
func BenchmarkEngine_LookupMemoHit(b *testing.B) {
	d := db.MustLoad()
	c := db.NewCache()
	for v := 0; v < 1<<16; v++ {
		d.LookupCached(tt.New(4, uint64(v)), c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok, hit := d.LookupCached(tt.New(4, uint64(i&0xFFFF)), c); !ok || !hit {
			b.Fatal("warm memo missed")
		}
	}
}

func BenchmarkEngine_NPNLookupUncached(b *testing.B) {
	d := db.MustLoad()
	for i := 0; i < b.N; i++ {
		if _, _, ok := d.Lookup(tt.New(4, uint64(i&0xFFFF))); !ok {
			b.Fatal("class missing")
		}
	}
}

// ------------------------------------------------------------ Ablations

// BenchmarkAblation_ExactPruning measures the encoding's extra pruning
// (all-gates-used, ≤1 complemented operand) on a 5-gate class.
func BenchmarkAblation_ExactPruning(b *testing.B) {
	f := pickSize5Class(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.Minimum(context.Background(), f, exact.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ExactNoPruning(b *testing.B) {
	f := pickSize5Class(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.Minimum(context.Background(), f, exact.Options{NoExtraPruning: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func pickSize5Class(b *testing.B) tt.TT {
	b.Helper()
	for _, e := range db.MustLoad().Entries() {
		if e.Size() == 5 {
			return e.Rep
		}
	}
	b.Fatal("no size-5 class")
	return tt.TT{}
}

// BenchmarkAblation_DepthOptBudget quantifies the depth optimizer's size
// budget (SizeFactor 1.2 vs 8) on the Max benchmark.
func BenchmarkAblation_DepthOptBudget12(b *testing.B) { benchDepthOpt(b, 1.2) }
func BenchmarkAblation_DepthOptBudget80(b *testing.B) { benchDepthOpt(b, 8) }

func benchDepthOpt(b *testing.B, factor float64) {
	spec, _ := circuits.ByName("Max")
	m := spec.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := depthopt.Optimize(m, depthopt.Options{SizeFactor: factor, MaxPasses: 40})
		if res.Depth() > m.Depth() {
			b.Fatal("depth grew")
		}
	}
}

// BenchmarkAblation_AdderArchitectures contrasts the two adder
// constructions the depth experiments reference: the algebraic optimizer
// flattening a ripple adder vs building the Kogge-Stone prefix structure
// directly.
func BenchmarkAblation_AdderFlattenRipple(b *testing.B) {
	spec, _ := circuits.ByName("Adder")
	m := spec.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := depthopt.Optimize(m, depthopt.Options{SizeFactor: 8, MaxPasses: 40})
		if res.Depth() >= m.Depth() {
			b.Fatal("no flattening")
		}
	}
}

func BenchmarkAblation_AdderKoggeStone(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bb := circuits.NewBuilder(256)
		sum, cout := bb.AddKoggeStone(bb.Inputs(0, 128), bb.Inputs(128, 128), mig.Const0)
		bb.Outputs(sum)
		bb.M.AddOutput(cout)
		if bb.M.Depth() >= 128 {
			b.Fatal("prefix adder too deep")
		}
	}
}
