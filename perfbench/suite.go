package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"mighash/internal/circuits"
	"mighash/internal/db"
	"mighash/internal/engine"
	"mighash/internal/exp"
	"mighash/internal/mig"
	"mighash/internal/obs"
)

// suiteWorkload is a batch of prepared suite circuits optimized one job at
// a time with one preset, round after round.
type suiteWorkload struct {
	preset   string
	circuits []string
	// sharedStore gives every job of a pass one db.OnDemand: round 1 runs
	// against the empty 5-input store and learns every class, later rounds
	// run against the warm store.
	sharedStore bool
	// relabel lets the seed permute the circuits' input labels as well as
	// the job order.
	relabel bool
}

// Log2 and Square-root are not in suite-resynx: their cold 5-input ladders
// alone cost about 6.5 s and 13 s, which would push a run past 40 s. Both
// stay in suite-resyn.
//
// suite-resynx keeps the labels as built: they change which 5-input classes
// resyn-x meets, and half of the seeds 1-10 met one more hopeless class (39
// cold ladders instead of 38, about 1 s more), which made cold_s bimodal
// across seeds.
var suiteWorkloads = map[string]suiteWorkload{
	"suite-resyn": {preset: "resyn", relabel: true,
		circuits: []string{"Adder", "Divisor", "Log2", "Max", "Multiplier", "Sine", "Square-root", "Square"}},
	"suite-resynx": {preset: "resyn-x", sharedStore: true,
		circuits: []string{"Adder", "Divisor", "Max", "Multiplier", "Sine", "Square"}},
}

// suiteJob is one prepared circuit under the seed's input labels.
type suiteJob struct {
	spec circuits.Spec
	perm []int // input i of the built circuit is input perm[i] of m
	m    *mig.MIG
}

// prepareSuite builds and prepares the circuits (exp.PrepareStart: the
// generator plus the depth-optimized starting point), relabels their
// inputs when relabel is set and orders the jobs by seed. Seed 0 is the
// suite as built. It also returns the time spent in depthopt during
// preparation.
func prepareSuite(names []string, seed int64, relabel, timeDepthopt bool) ([]suiteJob, time.Duration, error) {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]suiteJob, len(names))
	var depthoptTime time.Duration
	for i, name := range names {
		spec, ok := circuits.ByName(name)
		if !ok {
			return nil, 0, fmt.Errorf("unknown circuit %q", name)
		}
		var build time.Duration
		if timeDepthopt {
			t := time.Now()
			spec.Build()
			build = time.Since(t)
		}
		t := time.Now()
		prepared := exp.PrepareStart(spec)
		depthoptTime += time.Since(t) - build
		perm := make([]int, spec.NumPIs)
		for j := range perm {
			perm[j] = j
		}
		if seed != 0 && relabel {
			perm = rng.Perm(spec.NumPIs)
		}
		jobs[i] = suiteJob{spec: spec, perm: perm, m: permuteInputs(prepared, perm)}
	}
	if seed != 0 {
		rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	}
	return jobs, depthoptTime, nil
}

// jobRun is one RunContext call.
type jobRun struct {
	lat   time.Duration
	stats engine.PipelineStats
	sig   uint64
	out   *mig.MIG // kept for round 1 only, for the model check
	err   error
}

// suitePass is one measured pass over the jobs: the cold rounds, then warm
// rounds until the timed section is full.
type suitePass struct {
	cold   []jobRun   // the first cold round
	colds  [][]jobRun // every cold round, the first included
	warm   [][]jobRun // [round][job]
	cpu    time.Duration
	mem    runtime.MemStats // deltas over the warm rounds: TotalAlloc, NumGC
	synths [2]uint64        // store ladders after round 1 and after the last round
	store  *db.OnDemand     // the shared 5-input store, if any
	// Traced passes only: the finished spans of each round (cold first)
	// and the rewrite-pass inputs of the first warm round.
	spans    [][]*obs.Span
	captured []passInput
}

type passInput struct {
	pass string
	m    *mig.MIG
}

// minCalls is the fewest optimize calls the warm rounds of an untraced
// pass make, so that latency_p50_ms has ten samples beyond it.
const minCalls = 2*minBeyond + 1

// storeColdRounds is how many cold rounds an untraced pass runs when the
// jobs share a 5-input store, each against a fresh store; cold_s is their
// median. The ladder time of single cold rounds of one seed varied by
// about 20% from run to run.
const storeColdRounds = 3

// runSuitePass runs colds cold rounds and then warm rounds until seconds
// have passed and at least minRounds ran, or until maxRounds ran when
// maxRounds > 0 (a traced pass repeats its untraced twin's count).
func runSuitePass(w suiteWorkload, d *db.DB, jobs []suiteJob, seconds float64, colds, minRounds, maxRounds int, traced bool) (*suitePass, error) {
	p, err := engine.Preset(w.preset)
	if err != nil {
		return nil, err
	}
	p.DB = d
	p.Workers = 1
	sp := &suitePass{}
	capturing := false
	if traced {
		p.PassCheck = func(pass string, _ int, before, _ *mig.MIG) error {
			if capturing && pass != "depthopt" {
				sp.captured = append(sp.captured, passInput{pass, before})
			}
			return nil
		}
	}
	round := func(keep bool) []jobRun {
		ctx := context.Background()
		var tr *obs.Tracer
		if traced {
			tr = obs.New(obs.Options{Retain: true})
			ctx = obs.ContextWithTracer(ctx, tr)
		}
		runs := make([]jobRun, len(jobs))
		for i, j := range jobs {
			t := time.Now()
			out, st, err := p.RunContext(ctx, j.m)
			runs[i] = jobRun{lat: time.Since(t), stats: st, err: err}
			if err == nil {
				runs[i].sig = signature(out)
				if keep {
					runs[i].out = out
				}
			}
		}
		if traced {
			sp.spans = append(sp.spans, tr.Spans())
		}
		return runs
	}
	synths := func() uint64 {
		if sp.store == nil {
			return 0
		}
		return sp.store.Synths()
	}

	for c := 0; c < colds; c++ {
		if w.sharedStore {
			p.Exact5 = db.NewOnDemand(db.OnDemandOptions{})
			sp.store = p.Exact5
		}
		sp.colds = append(sp.colds, round(c == 0))
	}
	sp.cold = sp.colds[0]
	sp.synths[0] = synths()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	for {
		n := len(sp.warm)
		if maxRounds > 0 && n >= maxRounds {
			break
		}
		if maxRounds <= 0 && n >= minRounds && time.Since(start).Seconds() >= seconds {
			break
		}
		capturing = traced && n == 0
		sp.warm = append(sp.warm, round(false))
		capturing = false
	}
	sp.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&sp.mem)
	sp.mem.TotalAlloc -= before.TotalAlloc
	sp.mem.NumGC -= before.NumGC
	sp.synths[1] = synths()
	return sp, nil
}

// verify checks a pass and returns the failed-operation count: every call
// must succeed, every round must reproduce round 1's result, round-1
// results must match the circuits' models, and with a shared store the
// warm rounds must run no ladder.
func (sp *suitePass) verify(w suiteWorkload, jobs []suiteJob, seed int64, errs *[]string) (attempted, failed int) {
	bad := func(format string, args ...any) {
		failed++
		*errs = append(*errs, fmt.Sprintf(format, args...))
	}
	for i, j := range jobs {
		attempted++
		if err := sp.cold[i].err; err != nil {
			bad("%s round 1: %v", j.spec.Name, err)
			continue
		}
		if err := newModelVectors(j.spec, seed^0x5eed).check(sp.cold[i].out, j.perm, nil); err != nil {
			bad("round 1: %v", err)
		}
	}
	for r, runs := range append(sp.colds[1:], sp.warm...) {
		for i, run := range runs {
			attempted++
			switch {
			case run.err != nil:
				bad("%s round %d: %v", jobs[i].spec.Name, r+2, run.err)
			case run.sig != sp.cold[i].sig:
				bad("%s round %d: result differs from round 1", jobs[i].spec.Name, r+2)
			}
		}
	}
	if w.sharedStore && sp.synths[1] != sp.synths[0] {
		bad("warm rounds ran %d 5-input ladders, want 0", sp.synths[1]-sp.synths[0])
	}
	return attempted, failed
}

// qor sums the optimized sizes and depths over the jobs of round 1.
func (sp *suitePass) qor() (gates, depth int) {
	for _, r := range sp.cold {
		gates += r.stats.SizeAfter
		depth += r.stats.DepthAfter
	}
	return gates, depth
}

func roundTime(runs []jobRun) time.Duration {
	var t time.Duration
	for _, r := range runs {
		t += r.lat
	}
	return t
}

// warmRoundSeconds is the wall time of each warm round: the sum of its
// RunContext calls, which run one at a time.
func (sp *suitePass) warmRoundSeconds() []float64 {
	xs := make([]float64, len(sp.warm))
	for i, runs := range sp.warm {
		xs[i] = roundTime(runs).Seconds()
	}
	return xs
}

func (sp *suitePass) calls() int { return len(sp.warm) * len(sp.cold) }

// reqPerSecond is jobs completed per second of warm rounds.
func (sp *suitePass) reqPerSecond() float64 {
	var t float64
	for _, x := range sp.warmRoundSeconds() {
		t += x
	}
	return float64(sp.calls()) / t
}

func runSuite(cfg config) (*outcome, error) {
	w := suiteWorkloads[cfg.Workload]
	if cfg.Circuits != nil {
		w.circuits = cfg.Circuits
	}
	// Set-up: the DB load (cached by the process after the first call) and
	// the input preparation, repeated; setup_s is the median repetition.
	d, err := db.Load()
	if err != nil {
		return nil, err
	}
	load := time.Since(processStart)
	var (
		jobs    []suiteJob
		setups  []float64
		prepDO  time.Duration
		prepErr error
	)
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		jobs, prepDO, prepErr = prepareSuite(w.circuits, cfg.Seed, w.relabel, cfg.Trace && rep == 0)
		if prepErr != nil {
			return nil, prepErr
		}
		setups = append(setups, (load + time.Since(t)).Seconds())
	}
	ms := newMetricSet()
	var errs []string
	colds, minRounds := 1, 1
	if !cfg.Trace {
		minRounds = (minCalls + len(jobs) - 1) / len(jobs)
		if w.sharedStore {
			colds = storeColdRounds
		}
	}
	base, err := runSuitePass(w, d, jobs, cfg.Seconds, colds, minRounds, 0, false)
	if err != nil {
		return nil, err
	}
	attempted, failed := base.verify(w, jobs, cfg.Seed, &errs)
	if !cfg.Trace {
		suiteEndToEnd(ms, base, median(setups), len(setups))
	} else {
		traced, err := runSuitePass(w, d, jobs, cfg.Seconds, 1, 0, len(base.warm), true)
		if err != nil {
			return nil, err
		}
		a, f := traced.verify(w, jobs, cfg.Seed, &errs)
		attempted, failed = attempted+a, failed+f
		g0, d0 := base.qor()
		g1, d1 := traced.qor()
		fmt.Printf("gates_out %d depth_out %d untraced, %d %d traced\n", g0, d0, g1, d1)
		if g0 != g1 || d0 != d1 {
			failed++
			errs = append(errs, "traced run changed gates_out or depth_out")
		}
		if err := suiteLayers(ms, jobs, base, traced, prepDO, d); err != nil {
			return nil, err
		}
	}
	for _, e := range errs {
		fmt.Println("CHECK FAILED:", e)
	}
	return &outcome{metrics: ms, attempted: attempted, failed: failed}, nil
}

// suiteEndToEnd derives the end-to-end metrics of a suite pass. On the
// suites the unit of latency is one job (one RunContext call).
func suiteEndToEnd(ms *metricSet, sp *suitePass, setup float64, setupReps int) {
	rounds := sp.warmRoundSeconds()
	var lat, slowest []float64
	for _, runs := range sp.warm {
		top := 0.0
		for _, r := range runs {
			l := millis(r.lat)
			lat = append(lat, l)
			if l > top {
				top = l
			}
		}
		slowest = append(slowest, top)
	}
	p50, _ := percentile(lat, 0.5) // runSuitePass guarantees the samples
	gates, depth := sp.qor()
	n := fmt.Sprintf("%d warm rounds", len(rounds))
	ms.set("setup_s", "s", setup, fmt.Sprintf("(median of %d set-ups)", setupReps))
	colds := make([]float64, len(sp.colds))
	for i, runs := range sp.colds {
		colds[i] = roundTime(runs).Seconds()
	}
	ms.set("cold_s", "s", median(colds), fmt.Sprintf("(median of %d cold rounds, %d ladders each)", len(colds), sp.synths[0]))
	ms.set("suite_s", "s", median(rounds), "(median of "+n+")")
	ms.set("req_per_s", "1/s", sp.reqPerSecond(), fmt.Sprintf("(%d jobs in %s)", sp.calls(), n))
	ms.set("latency_p50_ms", "ms", p50, fmt.Sprintf("(p50 of %d jobs)", len(lat)))
	ms.set("latency_p99_ms", "ms", median(slowest), "(slowest job, median of "+n+")")
	ms.set("gates_out", "gates", float64(gates), fmt.Sprintf("(%d jobs)", len(sp.cold)))
	ms.set("depth_out", "levels", float64(depth), fmt.Sprintf("(%d jobs)", len(sp.cold)))
	ms.set("peak_rss_mb", "MiB", peakRSSMiB(), "(VmHWM)")
}

// suiteLayers derives the per-layer metrics of a suite workload: timings
// of public calls from the untraced pass, span-derived values from the
// traced pass, and the cut, npn and db replays on the traced pass's
// captured pass inputs.
func suiteLayers(ms *metricSet, jobs []suiteJob, base, traced *suitePass, prepDepthopt time.Duration, d *db.DB) error {
	l := newLayerValues()
	for i, j := range jobs {
		xs := make([]float64, len(base.warm))
		for r, runs := range base.warm {
			xs[r] = millis(runs[i].lat)
		}
		l.set("engine.job_ms."+j.spec.Name, median(xs), "(median of "+itoa(len(xs))+" rounds)")
	}
	rounds := make([][]engine.PipelineStats, len(base.warm))
	for r, runs := range base.warm {
		for _, x := range runs {
			rounds[r] = append(rounds[r], x.stats)
		}
	}
	l.setPassLayers(rounds)
	l.set("depthopt.prep_ms", millis(prepDepthopt), "(1 preparation)")
	var phases []map[string]time.Duration
	var ladders []ladder
	for r, spans := range traced.spans {
		if r > 0 {
			phases = append(phases, selfTimes(spans))
		}
		for _, s := range spans {
			if s.Name() == "exact5.ladder" {
				c, _ := strconv.ParseInt(s.Attr("conflicts"), 10, 64)
				ladders = append(ladders, ladder{s.Duration(), c, s.Attr("outcome") == "learned"})
			}
		}
	}
	l.setPhaseLayers(phases)
	if err := l.setLadderLayers(ladders); err != nil {
		return err
	}
	l.replayLayers(traced.captured, d, traced.store)
	l.setRuntimeLayers(base.mem, base.cpu, len(base.warm))
	l.set("trace.suite_s_delta", median(traced.warmRoundSeconds())-median(base.warmRoundSeconds()),
		"(traced minus untraced suite_s, "+itoa(len(base.warm))+" rounds each)")
	l.set("trace.req_per_s_delta", traced.reqPerSecond()-base.reqPerSecond(),
		"(traced minus untraced req_per_s)")
	l.emit(ms)
	return nil
}
