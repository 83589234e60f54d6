package rewrite

// Microbenchmarks of the rewriting hot path (run with -benchmem):
//
//   - cut enumeration with the reusable arena workspace
//   - cone-function extraction, truth-table-carrying cuts vs the legacy
//     per-cut cone re-simulation they replaced
//   - the steady-state best-cut evaluation loop, which must allocate ~0 B/op
//   - structural hashing through the open-addressing strash
//   - one whole TF pass and one bottom-up pass
//
// plus the determinism and workspace-reuse tests of whole passes.

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"mighash/internal/circuits"
	"mighash/internal/cut"
	"mighash/internal/db"
	"mighash/internal/mig"
	"mighash/internal/tt"
)

// benchGraph returns the Max arithmetic benchmark (≈3.5k gates), a
// realistic post-strash netlist for hot-path measurements.
func benchGraph(tb testing.TB) *mig.MIG {
	tb.Helper()
	spec, ok := circuits.ByName("Max")
	if !ok {
		tb.Fatal("Max benchmark missing")
	}
	return spec.Build()
}

// newBenchRewriter assembles a pass state the way Run does, so the
// evaluation loop can be driven in isolation.
func newBenchRewriter(tb testing.TB, m *mig.MIG, opt Options) *rewriter {
	tb.Helper()
	opt = opt.withDefaults()
	ws := opt.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}
	d := loadDB(tb)
	ws.prepare(d, m.NumNodes())
	r := &rewriter{
		m:    m,
		d:    d,
		opt:  opt,
		ws:   ws,
		cuts: ws.cuts.Enumerate(m, cut.Options{K: 4, MaxCuts: maxCuts}),
		fo:   m.FanoutCountsWS(ws.scratch),
		out:  ws.out,
	}
	r.resetOut()
	if opt.FFR {
		r.ffr = m.FFRRootsWS(ws.scratch, r.fo)
	}
	return r
}

// BenchmarkRewriteHotPathCutEnum measures arena-backed cut enumeration;
// after the first iteration warms the arena it allocates nothing.
func BenchmarkRewriteHotPathCutEnum(b *testing.B) {
	m := benchGraph(b)
	ws := cut.NewWorkspace()
	ws.Enumerate(m, cut.Options{K: 4, MaxCuts: 24})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Enumerate(m, cut.Options{K: 4, MaxCuts: 24})
	}
}

// BenchmarkRewriteHotPathConeTTLegacy is the cone-function extraction the
// seed performed once per candidate cut: a map-memoized re-simulation.
func BenchmarkRewriteHotPathConeTTLegacy(b *testing.B) {
	m := benchGraph(b)
	cuts := cut.NewWorkspace().Enumerate(m, cut.Options{K: 4, MaxCuts: 24})
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
			for j := range cuts[id] {
				c := &cuts[id][j]
				sink += m.ConeTT(mig.MakeLit(mig.ID(id), false), c.Leaves()).Expand(4).Bits
			}
		}
	}
	_ = sink
}

// BenchmarkRewriteHotPathCutTT reads the same cone functions off the
// truth-table-carrying cuts — the replacement for the re-simulation above.
func BenchmarkRewriteHotPathCutTT(b *testing.B) {
	m := benchGraph(b)
	cuts := cut.NewWorkspace().Enumerate(m, cut.Options{K: 4, MaxCuts: 24})
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
			for j := range cuts[id] {
				sink += uint64(cuts[id][j].TT)
			}
		}
	}
	_ = sink
}

// BenchmarkRewriteHotPathBestCutLoop drives the steady-state cut-
// evaluation loop — cone analysis, admissibility, NPN lookup, candidate
// selection — over every live gate. This is the loop the pass spends its
// time in; with the workspace and its lookup memo warm it must report
// ~0 allocs/op.
func BenchmarkRewriteHotPathBestCutLoop(b *testing.B) {
	m := benchGraph(b)
	r := newBenchRewriter(b, m, TF)
	// Warm the lookup memo so iterations measure the steady state.
	for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
		r.bestCut(mig.ID(id))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
			r.bestCut(mig.ID(id))
		}
	}
}

// BenchmarkRewriteHotPathStrash rebuilds every gate of the graph through
// Maj — a pure structural-hashing workout (every call hits the table).
func BenchmarkRewriteHotPathStrash(b *testing.B) {
	m := benchGraph(b)
	dst := mig.New(m.NumPIs())
	sig := make([]mig.Lit, m.NumNodes())
	sig[0] = mig.Const0
	for i := 0; i < m.NumPIs(); i++ {
		sig[m.Input(i).ID()] = dst.Input(i)
	}
	at := func(l mig.Lit) mig.Lit { return sig[l.ID()].NotIf(l.Comp()) }
	build := func() {
		for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
			f := m.Fanin(mig.ID(id))
			sig[id] = dst.Maj(at(f[0]), at(f[1]), at(f[2]))
		}
	}
	build() // populate; subsequent rounds are pure lookups
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
}

// BenchmarkRewriteHotPathPassSerial measures one full TF pass end to end
// with a reused workspace; ...PassBF measures one bottom-up pass the same
// way.
func benchPass(b *testing.B, opt Options) {
	m := benchGraph(b)
	d := loadDB(b)
	opt.Workspace = NewWorkspace()
	Run(m, d, opt) // warm workspace and lookup memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(m, d, opt)
	}
}

func BenchmarkRewriteHotPathPassSerial(b *testing.B) { benchPass(b, TF) }
func BenchmarkRewriteHotPathPassBF(b *testing.B)     { benchPass(b, BF) }

// TestBestCutLoopSteadyStateAllocs pins the acceptance criterion in a
// test: the steady-state cut-evaluation loop allocates nothing.
func TestBestCutLoopSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := randomMIG(rng, 10, 300, 3)
	r := newBenchRewriter(t, m, TF)
	for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
		r.bestCut(mig.ID(id)) // warm lookup memo and scratch
	}
	allocs := testing.AllocsPerRun(10, func() {
		for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
			r.bestCut(mig.ID(id))
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state best-cut loop allocates %.1f objects/run, want 0", allocs)
	}
}

// writeText renders a graph for bit-exact comparison.
func writeText(tb testing.TB, m *mig.MIG) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

// TestRewriteDeterministic: for every top-down variant, a pass over
// redundant cones commits replacements in many fanout-free regions,
// preserves the function, and a second run with a fresh workspace gives
// the same graph and the same statistics, lookup hits and misses
// included.
func TestRewriteDeterministic(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(43))
	graphs := []*mig.MIG{
		redundantCones(rng, 8, 12),
		redundantCones(rng, 12, 30),
	}
	for gi, m := range graphs {
		for _, v := range []struct {
			name string
			opt  Options
		}{{"TF", TF}, {"T", T}, {"TFD", TFD}, {"TD", TD}} {
			got, st := Run(m, d, v.opt)
			if st.Replacements == 0 {
				t.Fatalf("graph %d %s: no replacements", gi, v.name)
			}
			if eq, ce, err := mig.Equivalent(m, got, 0); err != nil {
				t.Fatal(err)
			} else if !eq {
				t.Fatalf("graph %d %s: rewrite changed the function, counterexample %v",
					gi, v.name, ce)
			}
			again, ast := Run(m, d, v.opt)
			if writeText(t, again) != writeText(t, got) {
				t.Errorf("graph %d %s: a second run produced a different MIG", gi, v.name)
			}
			st.Elapsed, ast.Elapsed = 0, 0
			if ast != st {
				t.Errorf("graph %d %s: a second run reported %+v, first %+v", gi, v.name, ast, st)
			}
		}
	}
}

// TestRewriteSharedWorkspaceSequence reuses one workspace, with its
// lookup memo and its output builder, across a sequence of TF, BF and
// TFx passes, each on the previous result, mimicking a pipeline run. It
// checks every result and its reported size and depth against a
// fresh-state run, and re-checks the text of every earlier result after
// each later pass, which resets and refills the workspace's builder: no
// result may share storage with it. Last, a TFx pass on a smaller graph
// after one on a larger graph, which leaves menus, menu offsets and cut
// blocks sized for the larger one, must match a fresh workspace's.
func TestRewriteSharedWorkspaceSequence(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(47))
	ws := NewWorkspace()
	type kept struct {
		m    *mig.MIG
		text string
	}
	var results []kept
	for round := 0; round < 6; round++ {
		cur := randomMIG(rng, 8+rng.Intn(6), 100+rng.Intn(200), 2)
		for _, base := range []Options{TF, BF, variant("TFx")} {
			opt := base
			opt.Workspace = ws
			got, st := Run(cur, d, opt)
			want, _ := Run(cur, d, base)
			name := VariantName(base)
			text := writeText(t, want)
			if writeText(t, got) != text {
				t.Fatalf("round %d %s: workspace reuse changed the result", round, name)
			}
			if st.SizeBefore != cur.Size() || st.DepthBefore != cur.Depth() ||
				st.SizeAfter != got.Size() || st.DepthAfter != got.Depth() {
				t.Fatalf("round %d %s: stats say %d/%d → %d/%d gates/levels, the graphs have %d/%d → %d/%d",
					round, name, st.SizeBefore, st.DepthBefore, st.SizeAfter, st.DepthAfter,
					cur.Size(), cur.Depth(), got.Size(), got.Depth())
			}
			results = append(results, kept{got, text})
			for i, k := range results {
				if writeText(t, k.m) != k.text {
					t.Fatalf("round %d %s: result %d changed after a later pass reused the builder", round, name, i)
				}
			}
			cur = got
		}
	}
	for _, gates := range []int{800, 150} {
		m := randomMIG(rng, 12, gates, 3)
		opt := variant("TFx")
		opt.Workspace = ws
		got, st := Run(m, d, opt)
		want, wst := Run(m, d, variant("TFx"))
		if writeText(t, got) != writeText(t, want) {
			t.Fatalf("TFx on %d gates: workspace reuse changed the result", gates)
		}
		if st.Choices == 0 || st.Choices != wst.Choices || st.ExtractSaved != wst.ExtractSaved || st.Replacements != wst.Replacements {
			t.Fatalf("TFx on %d gates: reused workspace recorded %d choices, saved %d, replaced %d; fresh %d, %d, %d",
				gates, st.Choices, st.ExtractSaved, st.Replacements, wst.Choices, wst.ExtractSaved, wst.Replacements)
		}
	}
}

// TestRecordLayout pins the records a pass keeps per node and per menu
// entry at 32 bytes or less: a choice-aware pass records one choiceRec
// per candidate of every admissible cut of every live gate.
func TestRecordLayout(t *testing.T) {
	for _, r := range []struct {
		name string
		size uintptr
	}{
		{"replacement", unsafe.Sizeof(replacement{})},
		{"choiceRec", unsafe.Sizeof(choiceRec{})},
		{"candidateCut", unsafe.Sizeof(candidateCut{})},
	} {
		if r.size > 32 {
			t.Errorf("%s is %d bytes, want at most 32", r.name, r.size)
		}
	}
}

// TestSharedInputPasses runs TFx and TF5x passes, each goroutine with its
// own workspace, and FindMaj probes through goroutine-owned indexes, all
// at once over one freshly compacted graph, as the concurrent runs of a
// batch or a server share an input. Run under -race -count=10: a pass
// that indexed its input in place would race. The expected results come
// from a twin compacted copy, so nothing touches the shared graph before
// the goroutines start and builds shared state early, where the
// goroutines would not race on it.
func TestSharedInputPasses(t *testing.T) {
	d := loadDB(t)
	src := randomMIG(rand.New(rand.NewSource(89)), 8, 300, 3)
	shared, twin := src.Compact(), src.Compact()
	store := store5()
	opts := []Options{variant("TFx"), variant("TF5x")}
	want := make([]string, len(opts))
	for i := range opts {
		opts[i].Exact5 = store
		got, st := Run(twin, d, opts[i])
		if st.Choices == 0 || st.Replacements == 0 {
			t.Fatalf("%s recorded %d choices and %d replacements: it would not probe its input", VariantName(opts[i]), st.Choices, st.Replacements)
		}
		want[i] = writeText(t, got)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var x mig.Index
			x.Reset(shared)
			for id := shared.NumPIs() + 1; id < shared.NumNodes(); id++ {
				f := shared.Fanin(mig.ID(id))
				if l, ok := x.FindMaj(f[1], f[2], f[0]); !ok || l != mig.MakeLit(mig.ID(id), false) {
					t.Errorf("goroutine %d: FindMaj on gate %d's fanins = %v, %v", g, id, l, ok)
					return
				}
			}
			ws := NewWorkspace()
			for i := range opts {
				k := (i + g) % len(opts)
				opt := opts[k]
				opt.Workspace = ws
				if got, _ := Run(shared, d, opt); writeText(t, got) != want[k] {
					t.Errorf("goroutine %d: %s on the shared graph differs from the sequential run", g, VariantName(opt))
				}
			}
		}()
	}
	wg.Wait()
}

// TestWorkspaceReusedAcrossDBs: one workspace driven alternately over
// the full database and a partial one missing half the classes gives
// the graphs and lookup statistics of a fresh workspace per run — the
// lookup memos start over whenever the database changes, so they never
// answer for a database they were not filled through.
func TestWorkspaceReusedAcrossDBs(t *testing.T) {
	full := loadDB(t)
	entries := full.Entries()
	partial, err := db.New(append([]db.Entry(nil), entries[len(entries)/2:]...))
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(48))
	differ := 0
	for round := 0; round < 20; round++ {
		m := naive4(tt.New(4, uint64(rng.Intn(1<<16))))
		var texts []string
		for i, d := range []*db.DB{full, partial} {
			opt := T
			opt.Workspace = ws
			got, st := Run(m, d, opt)
			want, wst := Run(m, d, T)
			text := writeText(t, got)
			if text != writeText(t, want) {
				t.Fatalf("round %d run %d: reused workspace changed the graph", round, i)
			}
			if st.CacheHits != wst.CacheHits || st.CacheMisses != wst.CacheMisses {
				t.Fatalf("round %d run %d: reused workspace looked up %d/%d (hits/misses), fresh %d/%d",
					round, i, st.CacheHits, st.CacheMisses, wst.CacheHits, wst.CacheMisses)
			}
			texts = append(texts, text)
		}
		if texts[0] != texts[1] {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the partial database changed no graph; the test cannot see a stale memo")
	}
}
