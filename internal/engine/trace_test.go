package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"mighash/internal/mig"
	"mighash/internal/obs"
	"mighash/internal/rewrite"
)

// TestProgressAndTracerAgree pins the contract between the two
// observability channels: the Progress callback and the "pass" spans must
// report the same pass count and the same (name, iteration) ordering.
func TestProgressAndTracerAgree(t *testing.T) {
	d := loadDB(t)
	m := randomMIG(rand.New(rand.NewSource(7)), 8, 300, 4)

	type rec struct {
		name string
		iter int
	}
	var fromProgress []rec
	p := &Pipeline{
		Name:   "trace-test",
		Passes: []Pass{RewritePass(rewrite.TF), RewritePass(rewrite.BF)},
		DB:     d,
		Progress: func(ps PassStats) {
			fromProgress = append(fromProgress, rec{ps.Name, ps.Iteration})
		},
	}
	tr := obs.New(obs.Options{Retain: true})
	ctx := obs.ContextWithTracer(context.Background(), tr)
	_, st, err := p.RunContext(ctx, m)
	if err != nil {
		t.Fatal(err)
	}

	var fromSpans []rec
	for _, s := range tr.Spans() {
		if s.Name() != "pass" {
			continue
		}
		var it int
		for _, a := range s.Attrs() {
			if a.Key == "iteration" {
				it = int(a.Int)
			}
		}
		fromSpans = append(fromSpans, rec{s.Attr("name"), it})
	}
	if len(fromProgress) != len(st.Passes) {
		t.Fatalf("Progress saw %d passes, stats have %d", len(fromProgress), len(st.Passes))
	}
	if len(fromSpans) != len(fromProgress) {
		t.Fatalf("spans saw %d passes, Progress saw %d", len(fromSpans), len(fromProgress))
	}
	// Passes run serially within a pipeline, and pass spans end before
	// Progress fires, so both channels share one ordering.
	for i := range fromSpans {
		if fromSpans[i] != fromProgress[i] {
			t.Fatalf("pass %d: span %v vs progress %v", i, fromSpans[i], fromProgress[i])
		}
	}
}

// TestPanickingProgressEndsSpan pins the panic contract: a user Progress
// callback that panics must not leave the in-flight pass span (nor its
// ancestors) open — the deferred End chain closes everything on unwind.
func TestPanickingProgressEndsSpan(t *testing.T) {
	d := loadDB(t)
	m := randomMIG(rand.New(rand.NewSource(7)), 6, 80, 2)
	p := &Pipeline{
		Name:     "panic-test",
		Passes:   []Pass{RewritePass(rewrite.TF)},
		DB:       d,
		Progress: func(PassStats) { panic("user callback exploded") },
	}
	tr := obs.New(obs.Options{Retain: true})
	ctx := obs.ContextWithTracer(context.Background(), tr)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Progress panic did not propagate")
			}
		}()
		p.RunContext(ctx, m)
	}()

	spans := tr.Spans()
	want := map[string]bool{"pass": false, "iteration": false, "pipeline": false}
	for _, s := range spans {
		if _, ok := want[s.Name()]; ok {
			want[s.Name()] = true
		}
		if s.Duration() <= 0 {
			t.Errorf("span %q collected with non-positive duration", s.Name())
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("span %q left open (not collected) after Progress panic", name)
		}
	}
}

// TestTracerDoesNotPerturbResults pins the "spans observe, never steer"
// guarantee: the optimized graph is bit-identical with and without a
// tracer installed.
func TestTracerDoesNotPerturbResults(t *testing.T) {
	d := loadDB(t)
	m := randomMIG(rand.New(rand.NewSource(11)), 6, 300, 4)
	p := &Pipeline{
		Name:   "perturb-test",
		Passes: []Pass{RewritePass(rewrite.TF), RewritePass(rewrite.BF)},
		DB:     d,
	}
	plain, stPlain, err := p.RunContext(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(obs.Options{Retain: true})
	traced, stTraced, err := p.RunContext(obs.ContextWithTracer(context.Background(), tr), m)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Size() != traced.Size() || plain.Depth() != traced.Depth() {
		t.Fatalf("tracer changed result: size %d→%d, depth %d→%d",
			plain.Size(), traced.Size(), plain.Depth(), traced.Depth())
	}
	ps, ts := plain.Simulate(), traced.Simulate()
	for i := range ps {
		if ps[i] != ts[i] {
			t.Fatalf("tracer changed function of output %d", i)
		}
	}
	if stPlain.Iterations != stTraced.Iterations || len(stPlain.Passes) != len(stTraced.Passes) {
		t.Fatal("tracer changed convergence")
	}
}

// TestBatchJobSpans pins that RunBatch parents each job's pipeline under
// a "job" span carrying the job name, with tracer-install safe under the
// worker pool.
func TestBatchJobSpans(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(3))
	jobs := []Job{
		{Name: "j0", M: randomMIG(rng, 6, 60, 2)},
		{Name: "j1", M: randomMIG(rng, 6, 60, 2)},
		{Name: "j2", M: randomMIG(rng, 6, 60, 2)},
	}
	p := &Pipeline{Name: "batch-trace", Passes: []Pass{RewritePass(rewrite.TF)}, DB: d}
	var mu sync.Mutex
	names := map[string]int{}
	tr := obs.New(obs.Options{OnEnd: func(s *obs.Span) {
		if s.Name() != "job" {
			return
		}
		mu.Lock()
		names[s.Attr("name")]++
		mu.Unlock()
	}})
	ctx := obs.ContextWithTracer(context.Background(), tr)
	if _, err := RunBatch(ctx, p, jobs, BatchOptions{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if names[j.Name] != 1 {
			t.Errorf("job %q has %d job spans, want 1 (all: %v)", j.Name, names[j.Name], names)
		}
	}
}

// TestPassCheckSpans pins that per-pass verification shows in traces:
// with PassCheck set, every executed pass gets one "pass-check" span with
// the pass's name and iteration, in pass order; without it, none.
func TestPassCheckSpans(t *testing.T) {
	d := loadDB(t)
	m := randomMIG(rand.New(rand.NewSource(7)), 8, 300, 4)
	type rec struct {
		name string
		iter int
	}
	spans := func(tr *obs.Tracer, name string) []rec {
		var out []rec
		for _, s := range tr.Spans() {
			if s.Name() != name {
				continue
			}
			r := rec{name: s.Attr("name")}
			for _, a := range s.Attrs() {
				if a.Key == "iteration" {
					r.iter = int(a.Int)
				}
			}
			out = append(out, r)
		}
		return out
	}
	for _, check := range []bool{false, true} {
		p := &Pipeline{
			Name:   "pass-check-test",
			Passes: []Pass{RewritePass(rewrite.TF), RewritePass(rewrite.BF)},
			DB:     d,
		}
		var checked []rec
		if check {
			p.PassCheck = func(pass string, iter int, before, after *mig.MIG) error {
				checked = append(checked, rec{pass, iter})
				return nil
			}
		}
		tr := obs.New(obs.Options{Retain: true})
		_, st, err := p.RunContext(obs.ContextWithTracer(context.Background(), tr), m)
		if err != nil {
			t.Fatal(err)
		}
		passes, checks := spans(tr, "pass"), spans(tr, "pass-check")
		if !check {
			if len(checks) != 0 {
				t.Fatalf("no PassCheck, yet %d pass-check spans", len(checks))
			}
			continue
		}
		if len(passes) != len(st.Passes) || len(checks) != len(passes) {
			t.Fatalf("%d passes ran, %d pass spans, %d pass-check spans", len(st.Passes), len(passes), len(checks))
		}
		for i := range checks {
			if checks[i] != passes[i] || checks[i] != checked[i] {
				t.Fatalf("check %d: span %v, pass span %v, hook saw %v", i, checks[i], passes[i], checked[i])
			}
		}
	}
}
