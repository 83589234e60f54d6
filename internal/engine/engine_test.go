package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/db"
	"mighash/internal/depthopt"
	"mighash/internal/mig"
	"mighash/internal/rewrite"
)

func loadDB(t testing.TB) *db.DB {
	t.Helper()
	d, err := db.Load()
	if err != nil {
		t.Fatalf("embedded database unavailable (run cmd/migdb): %v", err)
	}
	return d
}

// randomMIG builds a pseudo-random DAG (same generator as the rewrite
// tests) so engine tests stay fast and self-contained.
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
		n := len(sigs)
		if n > 8 {
			n = 8
		}
		m.AddOutput(sigs[len(sigs)-1-rng.Intn(n)].NotIf(rng.Intn(2) == 0))
	}
	return m
}

// startMax returns the prepared Max benchmark (the smallest arithmetic
// workload), shared across tests.
var (
	startOnce sync.Once
	startM    *mig.MIG
)

func startMax(t testing.TB) *mig.MIG {
	t.Helper()
	startOnce.Do(func() {
		spec, _ := circuits.ByName("Max")
		m := spec.Build()
		startM, _ = depthopt.Optimize(m, depthopt.Options{SizeFactor: 8, MaxPasses: 40})
	})
	return startM
}

// TestPipelineConvergesToFixpoint: the pipeline stops when a full script
// round no longer improves, the reported best never loses to the input,
// and the fixpoint is real — one more pass recovers nothing.
func TestPipelineConvergesToFixpoint(t *testing.T) {
	d := loadDB(t)
	p, err := Preset("size")
	if err != nil {
		t.Fatal(err)
	}
	p.DB = d
	m := startMax(t)
	res, st, err := p.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Errorf("pipeline hit the iteration cap before converging: %v", st)
	}
	if st.SizeAfter > st.SizeBefore || res.Size() != st.SizeAfter {
		t.Errorf("best result inconsistent: %v vs size %d", st, res.Size())
	}
	if st.Iterations < 2 {
		t.Errorf("converged in %d iterations; fixpoint needs a non-improving round", st.Iterations)
	}
	again, ast := rewrite.Run(res, d, rewrite.BF)
	if ast.SizeAfter < res.Size() {
		t.Errorf("not a fixpoint: extra BF pass shrank %d → %d", res.Size(), ast.SizeAfter)
	}
	_ = again
}

// TestPipelineCacheHitsOnSecondIteration: the lookup memo lives for the
// whole run, and iteration 2 re-canonicalizes mostly functions that
// iteration 1 already resolved, so its passes must report memo hits.
func TestPipelineCacheHitsOnSecondIteration(t *testing.T) {
	d := loadDB(t)
	p, _ := Preset("size")
	p.DB = d
	_, st, err := p.Run(startMax(t))
	if err != nil {
		t.Fatal(err)
	}
	var hits2 int
	for _, ps := range st.Passes {
		if ps.Iteration == 2 {
			hits2 += ps.CacheHits
		}
	}
	if hits2 == 0 {
		t.Errorf("no cache hits on iteration 2: %+v", st.Passes)
	}
	if st.CacheHits+st.CacheMisses == 0 {
		t.Error("pipeline recorded no cache traffic at all")
	}
}

// TestCachedRewriteMatchesUncached: a pass whose lookups a warm memo
// answers (a workspace reused from an earlier pass over the same graph)
// must match the same pass on a fresh workspace — identical stats and a
// simulation-verified identical function.
func TestCachedRewriteMatchesUncached(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 6; round++ {
		m := randomMIG(rng, 4+rng.Intn(3), 40+rng.Intn(80), 2)
		want := m.Simulate()
		for _, opt := range []rewrite.Options{rewrite.TF, rewrite.BF, rewrite.TD} {
			plain, pst := rewrite.Run(m, d, opt)
			cached := opt
			cached.Workspace = rewrite.NewWorkspace()
			rewrite.Run(m, d, cached)
			got, cst := rewrite.Run(m, d, cached)
			if got.Size() != plain.Size() || got.Depth() != plain.Depth() ||
				cst.Replacements != pst.Replacements {
				t.Fatalf("round %d %s: cached rewrite diverged: %v vs %v", round, pst.Variant, cst, pst)
			}
			if cst.CacheMisses != 0 || cst.CacheHits != pst.CacheHits+pst.CacheMisses {
				t.Fatalf("round %d %s: warm memo answered %d of %d lookups", round, pst.Variant,
					cst.CacheHits, cst.CacheHits+cst.CacheMisses)
			}
			sim := got.Simulate()
			for i := range want {
				if sim[i] != want[i] {
					t.Fatalf("round %d %s: cached rewrite changed output %d", round, pst.Variant, i)
				}
			}
		}
	}
}

// TestCachedRewriteCEC re-checks cache soundness on a real workload with
// the SAT equivalence checker.
func TestCachedRewriteCEC(t *testing.T) {
	if testing.Short() {
		t.Skip("CEC on Max is slow")
	}
	d := loadDB(t)
	m := startMax(t)
	res, st := rewrite.Run(m, d, rewrite.BF)
	if st.CacheMisses == 0 {
		t.Fatal("cache saw no traffic")
	}
	eq, ce, err := mig.Equivalent(m, res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("cached rewrite changed the function, counterexample %v", ce)
	}
}

// normalize strips wall-clock fields so runs can be compared bytewise.
func normalize(results []Result) []Result {
	out := make([]Result, len(results))
	for i, r := range results {
		r.Stats.Elapsed = 0
		passes := make([]PassStats, len(r.Stats.Passes))
		for j, ps := range r.Stats.Passes {
			ps.Elapsed = 0
			passes[j] = ps
		}
		r.Stats.Passes = passes
		out[i] = r
	}
	return out
}

// TestRunBatchDeterministicAcrossWorkers: the per-job stats (including
// the lookup memo counters, private to each job's run) must be
// byte-identical at any worker count, in job order.
func TestRunBatchDeterministicAcrossWorkers(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(41))
	var jobs []Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, Job{
			Name: string(rune('a' + i)),
			M:    randomMIG(rng, 6+rng.Intn(6), 120+rng.Intn(120), 3),
		})
	}
	p, _ := Preset("resyn")
	p.DB = d
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		results, err := RunBatch(context.Background(), p, jobs, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d job %s: %v", workers, r.Name, r.Err)
			}
			if r.Name != jobs[i].Name {
				t.Fatalf("workers=%d: result %d is %q, want %q (ordering)", workers, i, r.Name, jobs[i].Name)
			}
		}
		got, err := json.Marshal(normalize(results))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Errorf("workers=%d produced different stats:\n%s\nvs workers=1:\n%s", workers, got, want)
		}
	}
}

// TestRunBatchCancellation: a cancelled context aborts promptly, marking
// unfinished jobs with the context error.
func TestRunBatchCancellation(t *testing.T) {
	d := loadDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, _ := Preset("size")
	p.DB = d
	jobs := []Job{{Name: "x", M: startMax(t)}}
	results, err := RunBatch(ctx, p, jobs, BatchOptions{Workers: 2})
	if err == nil {
		t.Fatal("RunBatch ignored the cancelled context")
	}
	if results[0].Err == nil {
		t.Error("cancelled job reported no error")
	}
}

// TestRunBatchHammersSharedState is the -race stress test: more batch
// workers than CPUs, each job's run fanning out its own intra-graph
// workers, all over one shared database and 5-input store.
func TestRunBatchHammersSharedState(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(47))
	var jobs []Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, Job{Name: "h", M: randomMIG(rng, 6, 80, 2)})
	}
	p, _ := Preset("quick")
	p.DB = d
	p.Workers = 2
	if _, err := RunBatch(context.Background(), p, jobs, BatchOptions{Workers: runtime.NumCPU() + 2}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitOutputsPreservesCones: every extracted cone computes exactly
// the output it was split from, and batch-optimizing the cones keeps it
// that way.
func TestSplitOutputsPreservesCones(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(53))
	m := randomMIG(rng, 6, 60, 5)
	want := m.Simulate()
	jobs := SplitOutputs(m, "rand")
	if len(jobs) != m.NumPOs() {
		t.Fatalf("%d jobs for %d outputs", len(jobs), m.NumPOs())
	}
	for i, j := range jobs {
		if got := j.M.Simulate()[0]; got != want[i] {
			t.Fatalf("cone %d computes %v, want %v", i, got, want[i])
		}
	}
	p, _ := Preset("size")
	p.DB = d
	results, err := RunBatch(context.Background(), p, jobs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if got := r.M.Simulate()[0]; got != want[i] {
			t.Fatalf("optimized cone %d computes %v, want %v", i, got, want[i])
		}
	}
}

// TestPresets: every advertised script resolves and rejects garbage.
func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := Preset(name)
		if err != nil {
			t.Errorf("preset %q: %v", name, err)
			continue
		}
		if len(p.Passes) == 0 {
			t.Errorf("preset %q has no passes", name)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Error("unknown script accepted")
	}
	if _, err := NewScript("s", "TF", "nope"); err == nil {
		t.Error("unknown pass accepted")
	}
	if p, err := NewScript("s", "TF", "depthopt", "BF"); err != nil || len(p.Passes) != 3 {
		t.Errorf("NewScript failed: %v %v", p, err)
	}
}

// TestEmptyPipeline covers the error path.
func TestEmptyPipeline(t *testing.T) {
	p := &Pipeline{Name: "empty"}
	if _, _, err := p.Run(mig.New(2)); err == nil {
		t.Fatal("empty pipeline ran")
	}
}

// TestPipelineIntraGraphWorkersDeterministic pins the contract of
// Pipeline.Workers: the optimized graph of a full multi-pass script is
// bit-identical for every intra-graph worker count.
func TestPipelineIntraGraphWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m := randomMIG(rng, 12, 400, 4)
	render := func(g *mig.MIG) string {
		var buf bytes.Buffer
		if err := g.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	var refText string
	var refStats PipelineStats
	for i, workers := range []int{0, 2, 8} {
		p, err := Preset("resyn")
		if err != nil {
			t.Fatal(err)
		}
		p.Workers = workers
		best, st, err := p.Run(m)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refText, refStats = render(best), st
			continue
		}
		if got := render(best); got != refText {
			t.Errorf("workers=%d produced a different graph than serial", workers)
		}
		if st.SizeAfter != refStats.SizeAfter || st.DepthAfter != refStats.DepthAfter {
			t.Errorf("workers=%d: size/depth %d/%d, want %d/%d",
				workers, st.SizeAfter, st.DepthAfter, refStats.SizeAfter, refStats.DepthAfter)
		}
	}
}

// TestRunBatchCompletedBeforeCancelReturnsNil is the regression test for
// the server's spurious 504: a cancellation that lands after every job
// already completed cleanly must not fail the batch — the result set is
// complete, so RunBatch returns nil (and the results carry no errors).
func TestRunBatchCompletedBeforeCancelReturnsNil(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(67))
	p, _ := Preset("quick") // one pass, one iteration: no ctx check after it
	p.DB = d
	jobs := []Job{{Name: "done", M: randomMIG(rng, 6, 60, 2)}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results, err := RunBatch(ctx, p, jobs, BatchOptions{
		Workers: 1,
		// Progress fires synchronously after the only pass of the only
		// job, so the cancellation is guaranteed to be visible by the
		// time RunBatch does its final context check.
		Progress: func(int, PassStats) { cancel() },
	})
	if err != nil {
		t.Fatalf("complete batch reported batch-level error: %v", err)
	}
	if results[0].Err != nil {
		t.Fatalf("complete job reported error: %v", results[0].Err)
	}
	if results[0].M == nil {
		t.Fatal("complete job carries no graph")
	}
}

// TestRunBatchCancelStillFailsLostJobs: the nil-on-complete relaxation
// must not swallow real cancellations — a context cancelled before any
// job starts still fails the batch.
func TestRunBatchCancelStillFailsLostJobs(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(68))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, _ := Preset("quick")
	p.DB = d
	jobs := []Job{{Name: "lost", M: randomMIG(rng, 6, 60, 2)}}
	if _, err := RunBatch(ctx, p, jobs, BatchOptions{Workers: 1}); err == nil {
		t.Fatal("batch with lost jobs returned nil")
	}
}

// renderBatch serializes every result graph so warm and cold runs can be
// compared bit-for-bit.
func renderBatch(t *testing.T, results []Result) []string {
	t.Helper()
	out := make([]string, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.Name, r.Err)
		}
		var buf bytes.Buffer
		if err := r.M.WriteBENCH(&buf); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.String()
	}
	return out
}

// TestRunBatchCacheFileWarmStart is the persistence property test: a
// warm-started batch produces bit-identical optimized MIGs to the cold
// run, and a corrupted snapshot degrades to a cold store with identical
// graphs rather than failing the batch.
func TestRunBatchCacheFileWarmStart(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(71))
	jobs := []Job{{Name: "Max", M: startMax(t)}}
	for i := 0; i < 3; i++ {
		jobs = append(jobs, Job{
			Name: string(rune('p' + i)),
			M:    randomMIG(rng, 6+rng.Intn(4), 150+rng.Intn(150), 3),
		})
	}
	p, _ := Preset("size")
	p.DB = d
	path := filepath.Join(t.TempDir(), "npn.cache")

	cold, err := RunBatch(context.Background(), p, jobs, BatchOptions{Workers: 2, CacheFile: path})
	if err != nil {
		t.Fatal(err)
	}
	coldGraphs := renderBatch(t, cold)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("batch did not leave a snapshot: %v", err)
	}

	warm, err := RunBatch(context.Background(), p, jobs, BatchOptions{Workers: 2, CacheFile: path})
	if err != nil {
		t.Fatal(err)
	}
	warmGraphs := renderBatch(t, warm)
	for i := range coldGraphs {
		if warmGraphs[i] != coldGraphs[i] {
			t.Errorf("job %s: warm-started graph differs from cold run", jobs[i].Name)
		}
	}

	// Scribble over the snapshot: the next batch must start cold (logged,
	// not fatal) and still produce the same graphs.
	if err := os.WriteFile(path, []byte("this is not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, err := RunBatch(context.Background(), p, jobs, BatchOptions{Workers: 2, CacheFile: path})
	if err != nil {
		t.Fatalf("batch with corrupt snapshot failed: %v", err)
	}
	for i, g := range renderBatch(t, recovered) {
		if g != coldGraphs[i] {
			t.Errorf("job %s: corrupt-snapshot run diverged from cold run", jobs[i].Name)
		}
	}
	// …and it must have replaced the corrupt file with a valid snapshot.
	if _, err := db.LoadSnapshotFile(path, db.NewOnDemand(db.OnDemandOptions{})); err != nil {
		t.Fatalf("snapshot after corrupt warm-start is not loadable: %v", err)
	}
}
