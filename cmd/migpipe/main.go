// Command migpipe drives the batch-optimization engine: it runs a named
// pass script over the benchmark suite (or one MIG file) on a bounded
// worker pool and reports per-circuit statistics, optionally as JSON.
//
// Usage:
//
//	migpipe -script resyn                     # all eight benchmarks, NumCPU workers
//	migpipe -script size -workers 1 -json     # serial, machine-readable stats
//	migpipe -script resyn -benchmarks Sine,Max -verify sat
//	migpipe -script resyn -verify sim -json       # differential harness, machine-readable
//	migpipe -script BF -in circuit.bench -split   # one job per output cone
//	migpipe -script TFD -in c.bench -verify sat -out opt.bench  # optimize one file, save the result
//	migpipe -script quick -benchmarks Max -out max.dot  # Graphviz rendering of one result
//	migpipe -script resyn5                    # resyn plus 5-input functional hashing
//	migpipe -script resyn-x                   # choice-aware rewriting + global extraction
//	migpipe -script resyn5 -cachefile npn.cache -synth-budget 2s
//	migpipe -url http://localhost:8080 -script resyn  # optimize remotely over HTTP
//	migpipe -script resyn5 -trace trace.json  # Chrome/Perfetto trace of the run
//	migpipe -scripts                          # list available scripts
//
// -workers sizes the batch job pool. Each job runs on one goroutine, so a
// single job (one -benchmarks name, or -in without -split) uses one CPU;
// -split turns one graph into one job per output cone. Results are
// bit-identical at any worker count.
//
// -verify selects a rung of the verification ladder (ARCHITECTURE.md,
// "Verification"): "sat" proves every final result equivalent to its
// input with the counterexample-guided SAT ladder; "sim" installs the
// differential harness — every pass of every iteration is re-simulated
// word-parallel against its input graph, refute-only, and the run ends
// with a calibration sweep proving the harness catches ground-truth
// inequivalent mutants; "sim+sat" does both. The -json report carries
// the harness statistics in its "verify" block (the sim-verify CI job
// uploads them as BENCH_sim.json).
//
// -script takes a preset or a single pass name of the pass grammar
// (engine.PassByName): a "5" suffix (resyn5, size5, TF5, TFD5x, …)
// extends functional hashing to five-leaf cuts, and an "x" suffix
// (resyn-x, depth-x, TFx, TF5x, …) switches to choice-aware extraction.
// The NPN classes of five-leaf cuts are not precomputed but learned —
// synthesized on first contact by the SAT engine under the budget of
// -synth-conflicts/-synth-budget, memoized by semi-canonical class, and
// persisted through -cachefile: the learned store is warm-started from
// the snapshot at that path (when it exists) and saved back after the
// run, so a warm rerun re-synthesizes nothing; the optimized graphs are
// bit-identical warm or cold.
//
// -out saves the optimized graph of a single local job (one -benchmarks
// name, or -in without -split) in the format its extension names: BENCH
// for .bench, Graphviz DOT for .dot, the MIG text format otherwise.
//
// With -trace the whole run is recorded as Chrome trace-event JSON: one
// span per job, pipeline, iteration and pass, down to the rewrite phases
// and the individual exact-synthesis ladders (internal/obs documents the
// taxonomy). Load the file in chrome://tracing or https://ui.perfetto.dev
// to see where a slow run spent its time.
//
// With -url the jobs are not optimized locally: they are serialized to
// BENCH and submitted to a running migserve at that base URL via
// POST /v1/optimize/batch, and the reported statistics are the server's.
// The engine-local -cachefile/-synth-* flags are ignored remotely (with
// a warning). -workers does not reach the server either: it runs one
// request's jobs one after another, so the reported worker count is 1.
// Transient failures — connection errors, 503s, other 5xx responses
// received before any payload — are retried up to -retries times with
// capped exponential backoff, full jitter, and the server's Retry-After
// hint as a floor; the -json report carries the attempt count spent (see
// the README's "HTTP API" retry contract).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mighash/internal/circuits"
	"mighash/internal/db"
	"mighash/internal/engine"
	"mighash/internal/exp"
	"mighash/internal/mig"
	"mighash/internal/obs"
	"mighash/internal/qor"
	"mighash/internal/server"
	"mighash/internal/sim/diff"
)

// jsonResult is engine.Result with the error stringified for encoding.
type jsonResult struct {
	Name  string               `json:"name"`
	Stats engine.PipelineStats `json:"stats"`
	Err   string               `json:"error,omitempty"`
	// Attempts is how many HTTP attempts the remote exchange carrying
	// this job spent (1 = first try succeeded); jobs travel in one batch
	// request, so every result of a run reports the same count. Zero —
	// and omitted — for local runs, which have no transport to retry.
	Attempts int `json:"attempts,omitempty"`
}

type jsonReport struct {
	Script string `json:"script"`
	// Workers is the size of the job pool that ran: the local batch
	// pool, or 1 for -url runs, whose server runs one request's jobs one
	// after another.
	Workers int           `json:"workers"`
	Jobs    int           `json:"jobs"`
	Elapsed time.Duration `json:"elapsed_ns"`
	// CacheHits/CacheMisses aggregate the 4-input lookup memo counters
	// over every job; CacheHitRate is their ratio.
	CacheHits    int     `json:"cache_hits"`
	CacheMisses  int     `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// The on-demand 5-input store of this run (all zero for K = 4
	// scripts): classes known at exit, exact-synthesis ladders run, and
	// ladders that blew their budget. The exact5-smoke CI job asserts
	// Exact5Synths == 0 on a warm -cachefile rerun.
	Exact5Entries  int `json:"exact5_entries"`
	Exact5Negative int `json:"exact5_negative"`
	Exact5Synths   int `json:"exact5_synths"`
	Exact5Timeouts int `json:"exact5_timeouts"`
	// Choice-aware extraction, aggregated over every job (zero unless
	// the script runs an extraction variant): candidate (cut, candidate)
	// choices recorded, and gates the global covers saved over the
	// greedy twin runs. The extract-smoke CI job uploads these (as
	// BENCH_extract.json) and migtrend renders them.
	ExtractChoices int `json:"extract_choices,omitempty"`
	ExtractSaved   int `json:"extract_saved,omitempty"`
	// Attempts counts the HTTP attempts of a remote run (1 = no retries
	// were needed; omitted locally). The chaos-smoke CI asserts this
	// climbs when the server sheds with 503 + Retry-After.
	Attempts int `json:"attempts,omitempty"`
	// Verify carries the verification-ladder statistics of a local run
	// with -verify; omitted otherwise (remote runs verify server-side).
	Verify  *jsonVerify  `json:"verify,omitempty"`
	Results []jsonResult `json:"results"`
	// Run identifies this invocation in the durable QoR trend store, and
	// Provenance pins the build and machine the numbers came from (git
	// SHA, timestamp, os/arch, GOMAXPROCS). Qor carries one trend-store
	// record per completed job — the lines migtrend -history appends and
	// migtrend -gate compares across runs.
	Run        string         `json:"run"`
	Provenance qor.Provenance `json:"provenance"`
	Qor        []qor.Record   `json:"qor,omitempty"`
}

// jsonVerify is the "verify" block of the -json report: what the
// verification ladder did and how fast. The sim-verify CI job uploads
// this (as BENCH_sim.json) and migtrend renders it in the step summary.
type jsonVerify struct {
	// Mode echoes the -verify flag ("sat", "sim" or "sim+sat").
	Mode string `json:"mode"`
	// PassChecks/Patterns/Failures aggregate the differential harness:
	// graph pairs compared (one per executed pass, plus one final
	// input-vs-result check per job), input patterns swept, and checks
	// that refuted equivalence. Zero under plain -verify sat.
	PassChecks        int64   `json:"pass_checks"`
	Patterns          int64   `json:"patterns"`
	PatternsPerSecond float64 `json:"patterns_per_second"`
	Failures          int64   `json:"failures"`
	// CalibrationRefuted/CalibrationTotal report the self-test: how many
	// ground-truth-inequivalent mutants a dedicated harness refuted. A
	// shortfall means the pattern budget is too small to trust the zeros
	// above.
	CalibrationRefuted int `json:"calibration_refuted"`
	CalibrationTotal   int `json:"calibration_total"`
	// SimElapsed/SATElapsed split the verification wall clock by rung.
	SimElapsed time.Duration `json:"sim_elapsed_ns"`
	SATElapsed time.Duration `json:"sat_elapsed_ns"`
	// SATProofs counts the final results proven equivalent by the SAT
	// rung (modes "sat" and "sim+sat").
	SATProofs int `json:"sat_proofs"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("migpipe: ")
	var (
		script     = flag.String("script", "resyn", "pass script to run (see -scripts)")
		listOnly   = flag.Bool("scripts", false, "list available scripts and exit")
		workers    = flag.Int("workers", 0, "batch job pool size (0 = NumCPU)")
		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all eight)")
		in         = flag.String("in", "", "optimize one MIG file instead of the benchmark suite")
		split      = flag.Bool("split", false, "with -in: one batch job per output cone")
		prepare    = flag.Bool("prepare", true, "depth-optimize benchmark starting points first (Sec. V-C)")
		cacheFile  = flag.String("cachefile", "", "warm-start the learned 5-input store from this snapshot and save it back after the run")
		verify     = flag.String("verify", "", `verification ladder rung: "sat" (prove final results), "sim" (differential harness: re-simulate every pass, refute-only), or "sim+sat"`)
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON on stdout")
		timeout    = flag.Duration("timeout", 0, "overall wall-clock budget (0 = none)")
		url        = flag.String("url", "", "optimize remotely: base URL of a running migserve")
		retries    = flag.Int("retries", 4, "with -url: extra attempts after a transient failure (connect error, 503, other 5xx); 0 = fail fast")
		out        = flag.String("out", "", "write the optimized graph of a single local job to this file (.bench: BENCH, .dot: DOT, else MIG text)")
		synthConfl = flag.Int64("synth-conflicts", 0, "per-class SAT conflict budget of 5-input exact synthesis (0 = default, <0 = unlimited)")
		synthTime  = flag.Duration("synth-budget", 0, "per-class wall-clock budget of 5-input exact synthesis (0 = none; trades determinism for latency)")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load in chrome://tracing or Perfetto)")
	)
	flag.Parse()

	if *listOnly {
		fmt.Println(strings.Join(engine.PresetNames(), "\n"))
		return
	}
	simVerify, satVerify, err := verifyModes(*verify)
	if err != nil {
		log.Fatal(err)
	}
	p, err := engine.Preset(*script)
	if err != nil {
		log.Fatal(err)
	}
	jobs, err := buildJobs(*in, *split, *benchmarks, *prepare)
	if err != nil {
		log.Fatal(err)
	}
	if *out != "" && (*url != "" || len(jobs) > 1) {
		log.Fatalf("-out saves one local result: it needs a single job (one -benchmarks name, or -in without -split) and no -url")
	}
	var harness *diff.Harness
	if simVerify && *url == "" {
		// The differential harness re-checks every pass of every iteration
		// of every job against its input graph; one harness spans the whole
		// batch so counterexamples sharpen later checks.
		harness = diff.New(diff.Options{})
		p.PassCheck = harness.PassCheck
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var tracer *obs.Tracer
	var rootSpan *obs.Span
	if *traceOut != "" {
		if *url != "" {
			log.Printf("warning: -trace records only the local HTTP exchange with -url (server-side spans live in migserve -trace-dir)")
		}
		tracer = obs.New(obs.Options{Retain: true})
		ctx = obs.ContextWithTracer(ctx, tracer)
		ctx, rootSpan = obs.Start(ctx, "migpipe")
		rootSpan.SetStr("script", p.Name)
	}
	exact5 := db.NewOnDemand(db.OnDemandOptions{MaxConflicts: *synthConfl, Timeout: *synthTime})
	opt := engine.BatchOptions{Workers: *workers, CacheFile: *cacheFile, Exact5: exact5}
	if *url != "" {
		// The engine-local store flags never reach the server; warn
		// instead of silently dropping them so scripted runs notice.
		if *cacheFile != "" {
			log.Printf("warning: -cachefile is ignored with -url (persist the store server-side with migserve -cache-file)")
		}
		if *synthConfl != 0 || *synthTime != 0 {
			log.Printf("warning: -synth-conflicts/-synth-budget are ignored with -url (tune the server with migserve -synth-*)")
		}
	}
	start := time.Now()
	var results []engine.Result
	var attempts int
	if *url != "" {
		results, attempts, err = runRemote(ctx, *url, p.Name, *verify, *timeout, *retries, jobs)
	} else {
		results, err = engine.RunBatch(ctx, p, jobs, opt)
	}
	elapsed := time.Since(start)
	if tracer != nil {
		rootSpan.End()
		if err := tracer.SaveTrace(*traceOut); err != nil {
			log.Fatalf("writing trace to %s: %v", *traceOut, err)
		}
	}
	failed := false
	if err != nil {
		log.Printf("batch aborted: %v", err)
		failed = true
	}
	for _, r := range results {
		if r.Err != nil {
			failed = true
		}
	}
	if *out != "" && len(results) == 1 && results[0].Err == nil {
		if err := writeGraph(*out, results[0].M); err != nil {
			log.Printf("writing %s: %v", *out, err)
			failed = true
		}
	}
	var verifyStats *jsonVerify
	if *verify != "" && *url == "" {
		verifyStats = &jsonVerify{Mode: *verify}
		if simVerify {
			// Per-pass checks already chained before→after across the run;
			// the direct input-vs-result check closes the chain over the
			// pipeline's best-graph selection too.
			simStart := time.Now()
			for i, r := range results {
				if r.Err != nil || r.M == nil {
					continue
				}
				if err := harness.Check(jobs[i].M, r.M); err != nil {
					log.Printf("%s: MISCOMPARE: %v", r.Name, err)
					failed = true
				}
			}
			// Self-calibration on a dedicated harness, so its deliberate
			// failures do not pollute the run's counters: the harness must
			// refute ground-truth-inequivalent mutants of every job, or the
			// zero-failure report above is not worth much.
			calib := diff.New(diff.Options{})
			const mutantsPerJob = 4
			for _, j := range jobs {
				n := calib.Calibrate(j.M, mutantsPerJob)
				verifyStats.CalibrationRefuted += n
				verifyStats.CalibrationTotal += mutantsPerJob
				if n < mutantsPerJob {
					log.Printf("%s: calibration refuted only %d/%d ground-truth mutants (raise the pattern budget)",
						j.Name, n, mutantsPerJob)
					failed = true
				}
			}
			st := harness.Stats()
			verifyStats.PassChecks = st.Checks
			verifyStats.Patterns = st.Patterns
			verifyStats.PatternsPerSecond = st.PatternsPerSecond()
			verifyStats.Failures = st.Failures
			verifyStats.SimElapsed = time.Since(simStart)
		}
		if satVerify {
			satStart := time.Now()
			for i, r := range results {
				if r.Err != nil || r.M == nil {
					continue
				}
				eq, ce, err := mig.Equivalent(jobs[i].M, r.M, 0)
				if err != nil {
					log.Fatalf("%s: equivalence check failed to run: %v", r.Name, err)
				}
				if !eq {
					log.Printf("%s: MISCOMPARE, counterexample %v", r.Name, ce)
					failed = true
				} else {
					verifyStats.SATProofs++
				}
			}
			verifyStats.SATElapsed = time.Since(satStart)
		}
	}

	// The server runs one request's jobs one after another, so a remote
	// run's pool is 1 whatever -workers asked for.
	reportedWorkers := effectiveWorkers(*workers, len(jobs))
	if *url != "" {
		reportedWorkers = 1
	}
	var cacheHits, cacheMisses int
	var extractChoices, extractSaved int
	for _, r := range results {
		cacheHits += r.Stats.CacheHits
		cacheMisses += r.Stats.CacheMisses
		extractChoices += r.Stats.Choices
		extractSaved += r.Stats.ExtractSaved
	}

	if *jsonOut {
		// Every -json artifact doubles as a batch of durable trend-store
		// records: one qor.Record per completed job, all sharing this
		// invocation's run ID and provenance, ready for migtrend -history.
		prov := qor.CollectProvenance()
		runID := qor.NewRunID(prov)
		var qorRecs []qor.Record
		for _, r := range results {
			rec, ok := qor.FromResult(runID, p.Name, r, prov)
			if !ok {
				continue
			}
			rec.Exact5Synths = int(exact5.Synths())
			rec.Exact5Timeouts = int(exact5.Failures())
			qorRecs = append(qorRecs, rec)
		}
		rep := jsonReport{
			Script:         p.Name,
			Workers:        reportedWorkers,
			Jobs:           len(jobs),
			Elapsed:        elapsed,
			CacheHits:      cacheHits,
			CacheMisses:    cacheMisses,
			Exact5Entries:  exact5.Len(),
			Exact5Negative: exact5.NegativeLen(),
			Exact5Synths:   int(exact5.Synths()),
			Exact5Timeouts: int(exact5.Failures()),
			ExtractChoices: extractChoices,
			ExtractSaved:   extractSaved,
			Attempts:       attempts,
			Verify:         verifyStats,
			Run:            runID,
			Provenance:     prov,
			Qor:            qorRecs,
		}
		if total := cacheHits + cacheMisses; total > 0 {
			rep.CacheHitRate = float64(cacheHits) / float64(total)
		}
		for _, r := range results {
			jr := jsonResult{Name: r.Name, Stats: r.Stats, Attempts: attempts}
			if r.Err != nil {
				jr.Err = r.Err.Error()
			}
			rep.Results = append(rep.Results, jr)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("script %s, %d jobs, %d workers, wall %v\n",
			p.Name, len(jobs), reportedWorkers, elapsed.Round(time.Millisecond))
		if attempts > 1 {
			fmt.Printf("remote exchange took %d attempts (server busy; retried with backoff)\n", attempts)
		}
		fmt.Printf("%-16s %8s %8s %6s %6s %5s %9s %10s\n",
			"circuit", "size", "size'", "depth", "depth'", "iters", "cache-hit", "time")
		for _, r := range results {
			if r.Err != nil {
				fmt.Printf("%-16s error: %v\n", r.Name, r.Err)
				continue
			}
			s := r.Stats
			fmt.Printf("%-16s %8d %8d %6d %6d %5d %8.1f%% %10v\n",
				r.Name, s.SizeBefore, s.SizeAfter, s.DepthBefore, s.DepthAfter,
				s.Iterations, 100*s.CacheHitRate(), s.Elapsed.Round(time.Millisecond))
		}
		if total := cacheHits + cacheMisses; total > 0 {
			fmt.Printf("npn cache: %d hits / %d misses (%.1f%%)\n",
				cacheHits, cacheMisses, 100*float64(cacheHits)/float64(total))
		}
		if exact5.Len()+exact5.NegativeLen() > 0 || exact5.Synths() > 0 {
			fmt.Println(exact5)
		}
		if extractChoices > 0 {
			fmt.Printf("extract: %d choices recorded, global covers saved %d gates over greedy\n",
				extractChoices, extractSaved)
		}
		if v := verifyStats; v != nil {
			fmt.Printf("verify (%s):", v.Mode)
			if simVerify {
				fmt.Printf(" %d sim checks, %d patterns (%.0f/s), %d failures, calibration %d/%d in %v;",
					v.PassChecks, v.Patterns, v.PatternsPerSecond,
					v.Failures, v.CalibrationRefuted, v.CalibrationTotal, v.SimElapsed.Round(time.Millisecond))
			}
			if satVerify {
				fmt.Printf(" %d SAT proofs in %v", v.SATProofs, v.SATElapsed.Round(time.Millisecond))
			}
			fmt.Println()
		}
	}
	if failed {
		os.Exit(1)
	}
}

// buildJobs assembles the batch: the arithmetic benchmark suite, or one
// input file (optionally split into output cones).
func buildJobs(in string, split bool, benchmarks string, prepare bool) ([]engine.Job, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var m *mig.MIG
		if strings.HasSuffix(in, ".bench") {
			m, err = mig.ReadBENCH(f)
		} else {
			m, err = mig.ReadText(f)
		}
		if err != nil {
			return nil, err
		}
		if split {
			return engine.SplitOutputs(m, strings.TrimSuffix(in, ".bench")), nil
		}
		return []engine.Job{{Name: in, M: m}}, nil
	}
	specs := circuits.All()
	if benchmarks != "" {
		names := strings.Split(benchmarks, ",")
		specs = specs[:0]
		for _, n := range names {
			s, ok := circuits.ByName(strings.TrimSpace(n))
			if !ok {
				return nil, fmt.Errorf("unknown benchmark %q", n)
			}
			specs = append(specs, s)
		}
	}
	// Building and depth-preparing the large circuits is itself costly,
	// so it runs on its own worker pool rather than serializing in front
	// of the batch.
	jobs := make([]engine.Job, len(specs))
	var wg sync.WaitGroup
	next := int64(-1)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(specs) {
					return
				}
				spec := specs[i]
				var m *mig.MIG
				if prepare {
					m = exp.PrepareStart(spec)
				} else {
					m = spec.Build()
				}
				jobs[i] = engine.Job{Name: spec.Name, M: m}
			}
		}()
	}
	wg.Wait()
	return jobs, nil
}

// writeGraph saves m to path in the format its extension names: BENCH
// for .bench, Graphviz DOT for .dot, the MIG text format otherwise.
func writeGraph(path string, m *mig.MIG) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch {
	case strings.HasSuffix(path, ".bench"):
		err = m.WriteBENCH(f)
	case strings.HasSuffix(path, ".dot"):
		err = m.WriteDOT(f, "optimized")
	default:
		err = m.WriteText(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runRemote submits the jobs to a running migserve as one batch request
// and maps the server's results back onto the local reporting shape. The
// server performs the requested verification itself, so the local SAT
// check is skipped (remote results carry no graph). ctx carries the
// -timeout budget, bounding the HTTP exchange as well as the server-side
// work (which additionally receives the budget as timeout_ms).
//
// Transient failures — connection errors, 503s (which carry the server's
// Retry-After backlog hint), other 5xx responses — are retried up to
// retries extra times with capped exponential backoff and full jitter
// (see retryPolicy); the attempt count spent is reported back for the
// -json attempts fields.
func runRemote(ctx context.Context, baseURL, script, verify string, timeout time.Duration, retries int, jobs []engine.Job) ([]engine.Result, int, error) {
	req := server.BatchRequest{
		ScriptSpec: server.ScriptSpec{Script: script},
		Verify:     verify != "",
		VerifyMode: verify,
	}
	if timeout > 0 {
		req.TimeoutMS = timeout.Milliseconds()
	}
	for _, j := range jobs {
		var b strings.Builder
		if err := j.M.WriteBENCH(&b); err != nil {
			return nil, 0, err
		}
		req.Jobs = append(req.Jobs, server.BatchJobRequest{Name: j.Name, Netlist: b.String()})
	}
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	policy := retryPolicy{MaxRetries: retries, Base: 200 * time.Millisecond, Cap: 10 * time.Second}
	resp, attempts, err := policy.post(ctx, http.DefaultClient,
		strings.TrimSuffix(baseURL, "/")+"/v1/optimize/batch", "application/json", raw)
	if err != nil {
		return nil, attempts, fmt.Errorf("after %d attempt(s): %w", attempts, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, attempts, err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return nil, attempts, fmt.Errorf("server: %s (HTTP %d, %d attempts)", e.Error, resp.StatusCode, attempts)
		}
		return nil, attempts, fmt.Errorf("server returned HTTP %d (%d attempts)", resp.StatusCode, attempts)
	}
	var br server.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		return nil, attempts, fmt.Errorf("decoding server response: %v", err)
	}
	results := make([]engine.Result, len(br.Results))
	for i, r := range br.Results {
		results[i] = engine.Result{Name: r.Name, Stats: r.Stats}
		if r.Error != "" {
			results[i].Err = errors.New(r.Error)
		}
	}
	return results, attempts, nil
}

// verifyModes parses the -verify flag into its two ladder rungs.
func verifyModes(mode string) (simV, satV bool, err error) {
	switch mode {
	case "":
	case "sat":
		satV = true
	case "sim":
		simV = true
	case "sim+sat", "sat+sim":
		simV, satV = true, true
	default:
		err = fmt.Errorf(`-verify wants "sat", "sim" or "sim+sat", got %q`, mode)
	}
	return simV, satV, err
}

func effectiveWorkers(requested, jobs int) int {
	if requested <= 0 {
		requested = runtime.NumCPU()
	}
	if requested > jobs {
		return jobs
	}
	return requested
}
