package engine

import (
	"context"
	"fmt"
	"maps"
	"runtime/pprof"
	"slices"
	"time"

	"mighash/internal/db"
	"mighash/internal/depthopt"
	"mighash/internal/extract"
	"mighash/internal/mig"
	"mighash/internal/obs"
	"mighash/internal/rewrite"
)

// Pipeline is a composable optimization script: an ordered list of passes
// run repeatedly until the script stops improving the graph. A Pipeline
// is immutable during Run and may be used by many goroutines at once
// (RunBatch does exactly that).
type Pipeline struct {
	// Name labels the script in stats and CLIs ("resyn", "custom", …).
	Name string
	// Passes is the script body, executed in order each iteration.
	Passes []Pass
	// Objective selects the convergence metric: (size, depth)
	// lexicographically under extract.Size, the default and the paper's
	// setting, or (depth, size) under extract.Depth.
	Objective extract.Objective
	// MaxIterations caps the number of script rounds (default 10). The
	// pipeline stops earlier as soon as a full round fails to improve the
	// best cost seen, which is the common exit.
	MaxIterations int
	// DB supplies the minimum-MIG database; nil loads the embedded one.
	DB *db.DB
	// Exact5 is the on-demand 5-input exact-synthesis store feeding the
	// K = 5 passes ("TF5" and friends, the resyn5/size5 presets). When
	// nil each Run allocates a private store with default budgets; share
	// one db.NewOnDemand across runs and batch workers so every class is
	// synthesized once per process — and, with BatchOptions.CacheFile,
	// once per snapshot file. K = 4 scripts never touch it.
	Exact5 *db.OnDemand
	// Workers is ignored: every rewrite pass evaluates serially, and
	// RunBatch's job pool (BatchOptions.Workers) is the engine's only
	// parallelism.
	//
	// Deprecated: kept only so existing assignments still compile; it
	// will be removed.
	Workers int
	// PassCheck, when non-nil, is invoked synchronously after every
	// executed pass with the pass name, the 1-based iteration, and the
	// graphs before and after the pass. A non-nil error aborts the run
	// with that error — this is the differential-verification hook: the
	// sim harness (internal/sim/diff) re-checks each pass against its
	// input cheaply enough to leave enabled in CI. Like Progress, one
	// callback can be invoked concurrently from different runs sharing a
	// pipeline, so it must be safe for concurrent use (the diff harness
	// is).
	PassCheck func(pass string, iteration int, before, after *mig.MIG) error
	// Progress, when non-nil, is invoked synchronously after every
	// executed pass with that pass's statistics, before the next pass
	// starts. This is the hook behind streaming per-pass stats (the HTTP
	// service's JSON-lines mode); the callback must be fast and must not
	// retain the PassStats slice internals. Because a Pipeline may be
	// shared by many RunContext calls at once, a single Progress callback
	// can be invoked concurrently from different runs — install a per-run
	// callback on a copy of the pipeline when attribution matters
	// (RunBatch does exactly that for per-job progress).
	Progress func(PassStats)
}

// PipelineStats reports one pipeline run.
type PipelineStats struct {
	Script      string `json:"script"`
	Iterations  int    `json:"iterations"` // completed script rounds
	Converged   bool   `json:"converged"`  // stopped by fixpoint, not by MaxIterations
	SizeBefore  int    `json:"size_before"`
	SizeAfter   int    `json:"size_after"`
	DepthBefore int    `json:"depth_before"`
	DepthAfter  int    `json:"depth_after"`
	CacheHits   int    `json:"cache_hits"`   // 4-input memo hits, summed over rewrite passes
	CacheMisses int    `json:"cache_misses"` // 4-input memo misses, summed over rewrite passes
	// Choice-aware extraction totals, summed over the run's extraction
	// passes (zero for greedy-only scripts).
	Choices      int           `json:"choices,omitempty"`
	ExtractSaved int           `json:"extract_saved,omitempty"`
	Passes       []PassStats   `json:"passes"`
	Elapsed      time.Duration `json:"elapsed_ns"`
}

// CacheHitRate returns the fraction of 4-input lookups the run's memos
// answered.
func (s PipelineStats) CacheHitRate() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

func (s PipelineStats) String() string {
	return fmt.Sprintf("%s: size %d→%d, depth %d→%d, %d iterations (converged=%v), cache %.0f%% of %d, %v",
		s.Script, s.SizeBefore, s.SizeAfter, s.DepthBefore, s.DepthAfter,
		s.Iterations, s.Converged, 100*s.CacheHitRate(), s.CacheHits+s.CacheMisses, s.Elapsed)
}

// New builds a custom pipeline over the given passes with default
// convergence settings.
func New(passes ...Pass) *Pipeline {
	return &Pipeline{Name: "custom", Passes: passes}
}

// NewScript builds a pipeline from pass names (see PassByName).
func NewScript(name string, passNames ...string) (*Pipeline, error) {
	p := &Pipeline{Name: name}
	for _, pn := range passNames {
		pass, ok := PassByName(pn)
		if !ok {
			return nil, fmt.Errorf("engine: unknown pass %q", pn)
		}
		p.Passes = append(p.Passes, pass)
	}
	return p, nil
}

// preset is one shipped script: its passes, objective and iteration cap
// (0 = the default).
type preset struct {
	passes    []Pass
	objective extract.Objective
	maxIter   int
}

// deepDepthopt is the depth scripts' depth optimizer: it may grow the
// graph to 8x its gates over up to 40 passes, where the "depthopt" pass
// name keeps the size scripts' cap of 1.2x over 10.
var deepDepthopt = DepthPass(depthopt.Options{SizeFactor: 8, MaxPasses: 40})

// presets are the composite scripts shipped with the engine. Passes are
// stateless, so the table shares them; Preset hands out fresh slices.
var presets = map[string]preset{
	// resyn interleaves cheap and aggressive size passes with a budgeted
	// depth restructuring, in the spirit of ABC's resyn scripts and the
	// paper's closing remark on repeated hashing.
	"resyn": {passes: script("TF", "depthopt", "BF", "TFD")},
	// resyn5 is resyn with a trailing K = 5 hashing pass: the same
	// rounds, then five-leaf cuts resolved through the on-demand
	// exact-synthesis store. Rewrite passes never grow the graph, so a
	// resyn5 round is never worse than the resyn round it extends (the
	// exact5-smoke CI job pins this on the suite).
	"resyn5": {passes: script("TF", "depthopt", "BF", "TFD", "TF5")},
	// resyn-x is resyn5 with its TF and TF5 passes switched to
	// choice-aware extraction, which is never worse than the greedy pass
	// it replaces (the extract-smoke CI job pins this on the suite).
	"resyn-x": {passes: script("TFx", "depthopt", "BF", "TFD", "TF5x")},
	// size runs the strongest size variant to fixpoint.
	"size": {passes: script("BF")},
	// size5 extends the strongest size script with the K = 5 pass.
	"size5": {passes: script("BF", "TF5")},
	// depth alternates the depth optimizer with depth-preserving hashing
	// to recover the size it spends.
	"depth": {passes: append([]Pass{deepDepthopt}, script("TD")...), objective: extract.Depth},
	// depth-x inserts a depth-objective extraction between the depth
	// optimizer and the depth-preserving recovery pass.
	"depth-x": {passes: append([]Pass{deepDepthopt}, script("Txd", "TD")...), objective: extract.Depth},
	// quick is one TF pass: the cheapest useful cleanup.
	"quick": {passes: script("TF"), maxIter: 1},
}

// script resolves the pass names of a preset.
func script(names ...string) []Pass {
	passes := make([]Pass, len(names))
	for i, n := range names {
		pass, ok := PassByName(n)
		if !ok {
			panic("engine: preset names unknown pass " + n)
		}
		passes[i] = pass
	}
	return passes
}

// Preset returns a named script: a composite preset ("resyn", "size",
// "depth", "quick", …) or any pass name accepted by PassByName as a
// single-pass run-to-convergence script. Every call returns a fresh
// pipeline the caller may modify.
func Preset(name string) (*Pipeline, error) {
	if ps, ok := presets[name]; ok {
		return &Pipeline{
			Name:          name,
			Passes:        slices.Clone(ps.passes),
			Objective:     ps.objective,
			MaxIterations: ps.maxIter,
		}, nil
	}
	if pass, ok := PassByName(name); ok {
		return &Pipeline{Name: name, Passes: []Pass{pass}}, nil
	}
	return nil, fmt.Errorf("engine: unknown script %q (have %v)", name, PresetNames())
}

// PresetNames lists every name Preset accepts, sorted: the composite
// presets, "depthopt" and the rewrite pass grammar. The CLIs' error
// messages and the HTTP service's GET /v1/scripts both derive from it.
func PresetNames() []string {
	names := append(slices.Collect(maps.Keys(presets)), "depthopt")
	names = append(names, rewrite.VariantNames()...)
	slices.Sort(names)
	return names
}

// Run optimizes m with the script and returns the best graph seen
// together with the run statistics. m itself is never modified.
func (p *Pipeline) Run(m *mig.MIG) (*mig.MIG, PipelineStats, error) {
	return p.RunContext(context.Background(), m)
}

// RunContext is Run with cancellation between passes.
func (p *Pipeline) RunContext(ctx context.Context, m *mig.MIG) (*mig.MIG, PipelineStats, error) {
	if len(p.Passes) == 0 {
		return nil, PipelineStats{}, fmt.Errorf("engine: pipeline %q has no passes", p.Name)
	}
	d := p.DB
	if d == nil {
		var err error
		if d, err = db.Load(); err != nil {
			return nil, PipelineStats{}, err
		}
	}
	exact5 := p.Exact5
	if exact5 == nil {
		exact5 = db.NewOnDemand(db.OnDemandOptions{})
	}

	start := time.Now()
	st := PipelineStats{
		Script:     p.Name,
		SizeBefore: m.Size(), DepthBefore: m.Depth(),
	}
	ctx, pspan := obs.Start(ctx, "pipeline")
	pspan.SetStr("script", p.Name)
	pspan.SetInt("size_before", int64(st.SizeBefore))
	defer func() {
		pspan.SetInt("size_after", int64(st.SizeAfter))
		pspan.SetInt("iterations", int64(st.Iterations))
		pspan.End()
	}()
	env := passEnv{
		ctx: ctx, d: d, exact5: exact5,
		ws: rewrite.NewWorkspace(),
	}

	maxIter := p.MaxIterations
	if maxIter <= 0 {
		maxIter = 10
	}
	cur := m
	best, bestSize, bestDepth := m, st.SizeBefore, st.DepthBefore
	for st.Iterations < maxIter {
		if err := ctx.Err(); err != nil {
			return nil, PipelineStats{}, err
		}
		st.Iterations++
		// Every pass reports the size/depth of its result, so the round's
		// final cost is read off the last PassStats instead of re-walking
		// the graph twice per round.
		size, depth := bestSize, bestDepth
		err := func() error {
			ictx, ispan := obs.Start(ctx, "iteration")
			defer ispan.End()
			ispan.SetInt("round", int64(st.Iterations))
			ienv := env
			ienv.ctx = ictx
			for _, pass := range p.Passes {
				if err := ctx.Err(); err != nil {
					return err
				}
				next, ps := p.runPass(st.Iterations, pass, cur, ienv)
				if p.PassCheck != nil {
					if err := p.PassCheck(ps.Name, st.Iterations, cur, next); err != nil {
						return err
					}
				}
				st.Passes = append(st.Passes, ps)
				st.CacheHits += ps.CacheHits
				st.CacheMisses += ps.CacheMisses
				st.Choices += ps.Choices
				st.ExtractSaved += ps.ExtractSaved
				cur, size, depth = next, ps.SizeAfter, ps.DepthAfter
			}
			return nil
		}()
		if err != nil {
			return nil, PipelineStats{}, err
		}
		if p.Objective.Better(size, depth, bestSize, bestDepth) {
			best, bestSize, bestDepth = cur, size, depth
			continue
		}
		// Fixpoint: a whole round without improvement. Later rounds would
		// start from the same graph and repeat the same result.
		st.Converged = true
		break
	}
	st.SizeAfter, st.DepthAfter = bestSize, bestDepth
	st.Elapsed = time.Since(start)
	return best, st, nil
}

// runPass executes one pass inside a "pass" span. The span is ended
// before the user Progress callback is invoked — the callback's cost is
// not the pass's cost — and a deferred End (idempotent) guarantees a
// panicking callback can never leave the span open.
func (p *Pipeline) runPass(iter int, pass Pass, cur *mig.MIG, env passEnv) (*mig.MIG, PassStats) {
	ctx, span := obs.Start(env.ctx, "pass")
	defer span.End()
	span.SetStr("name", pass.Name())
	span.SetInt("iteration", int64(iter))
	// The pass label stacks on the job's circuit/preset labels (pprof.Do
	// nests), so a CPU profile of a busy server slices down to one pass
	// of one circuit under one preset.
	var (
		next *mig.MIG
		ps   PassStats
	)
	pprof.Do(ctx, pprof.Labels("pass", pass.Name()), func(ctx context.Context) {
		env.ctx = ctx
		next, ps = pass.run(cur, env)
	})
	ps.Iteration = iter
	span.SetInt("size_before", int64(ps.SizeBefore))
	span.SetInt("size_after", int64(ps.SizeAfter))
	span.SetInt("replacements", int64(ps.Replacements))
	span.End()
	if p.Progress != nil {
		p.Progress(ps)
	}
	return next, ps
}
