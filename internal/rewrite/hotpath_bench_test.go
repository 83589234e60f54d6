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
	"testing"

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
		m:         m,
		d:         d,
		opt:       opt,
		ws:        ws,
		cuts:      ws.cuts.Enumerate(m, cut.Options{K: 4, MaxCuts: opt.MaxCuts}),
		fo:        m.FanoutCounts(),
		out:       mig.New(m.NumPIs()),
		oldLevels: m.Levels(),
	}
	if opt.FFR {
		r.ffr = m.FFRRoots()
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
// lookup memo, across a sequence of passes, mimicking a pipeline run,
// and checks every result against a fresh-state run.
func TestRewriteSharedWorkspaceSequence(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(47))
	ws := NewWorkspace()
	for round := 0; round < 6; round++ {
		m := randomMIG(rng, 8+rng.Intn(6), 100+rng.Intn(200), 2)
		opt := TF
		opt.Workspace = ws
		got, _ := Run(m, d, opt)
		want, _ := Run(m, d, TF)
		if writeText(t, got) != writeText(t, want) {
			t.Fatalf("round %d: workspace reuse changed the result", round)
		}
	}
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
