package engine

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"

	"mighash/internal/db"
	"mighash/internal/fault"
	"mighash/internal/mig"
	"mighash/internal/obs"
)

// ErrJobPanic is the root of every Result.Err produced by a panicking
// job: a pass, a custom pipeline stage or injected chaos unwinding a
// worker is caught at the job boundary and reported in-band, so one
// poisoned graph fails its own job instead of killing the batch (and,
// one layer up, the server process). Match with errors.Is.
var ErrJobPanic = errors.New("engine: job panicked")

// Job is one unit of batch work: a named MIG to optimize. Jobs must not
// share a *MIG unless every job only reads it (pipelines never modify
// their input graph, so sharing a read-only input is safe).
type Job struct {
	Name string
	M    *mig.MIG
}

// Result is the outcome of one Job. Results are returned in job order
// regardless of worker scheduling.
type Result struct {
	Name  string        `json:"name"`
	M     *mig.MIG      `json:"-"`
	Stats PipelineStats `json:"stats"`
	Err   error         `json:"-"`
}

// BatchOptions tunes RunBatch.
type BatchOptions struct {
	// Workers bounds the worker pool; 0 or less means runtime.NumCPU().
	Workers int
	// CacheFile warm-starts the batch's on-demand 5-input store from an
	// on-disk snapshot: before any job runs, the snapshot at this path is
	// restored into the store, and after the batch the store is
	// snapshotted back atomically. A missing file is a silent cold start;
	// a corrupt or version-skewed snapshot degrades to a cold store with a
	// logged warning. The optimized graphs are bit-identical warm or cold:
	// a warm store only skips every already-learned synthesis (the
	// ladders just never run). K = 4 scripts leave the store empty. The
	// store is the pipeline's Exact5, or the one RunBatch creates.
	CacheFile string
	// Progress, when non-nil, is invoked synchronously after every pass of
	// every job with the job index (into the jobs slice) and that pass's
	// statistics. Calls for different jobs come from different worker
	// goroutines, so the callback must be safe for concurrent use; calls
	// for one job are ordered. This powers streaming per-pass stats for
	// long batch requests.
	Progress func(job int, ps PassStats)
}

// RunBatch optimizes every job with the pipeline on a bounded worker
// pool. Results are deterministic: results[i] belongs to jobs[i], and
// because each pipeline run is sequential and keeps its lookup memos
// private, the per-job stats and graphs do not depend on the worker
// count.
//
// Cancellation is cooperative at job and pass granularity: when ctx is
// cancelled, unstarted jobs and unfinished pipelines report ctx.Err() in
// their Result, and RunBatch returns ctx.Err(). A cancellation that
// lands after every job already completed cleanly costs nothing — the
// result set is complete, so RunBatch returns nil.
func RunBatch(ctx context.Context, p *Pipeline, jobs []Job, opt BatchOptions) ([]Result, error) {
	if p == nil {
		return nil, fmt.Errorf("engine: RunBatch requires a pipeline")
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Result, len(jobs))
	// Workers run a shallow copy of the pipeline so the batch's store is
	// installed without mutating the caller's p.
	run := *p
	if run.Exact5 == nil {
		// Always share one store across the batch, so jobs learn 5-input
		// classes for each other (K = 4 scripts never touch it, so the
		// empty store costs nothing).
		run.Exact5 = db.NewOnDemand(db.OnDemandOptions{})
	}
	if opt.CacheFile != "" {
		if _, err := db.LoadSnapshotFile(opt.CacheFile, run.Exact5); err != nil && !errors.Is(err, fs.ErrNotExist) {
			log.Printf("engine: warm-start from %s failed, starting cold: %v", opt.CacheFile, err)
		}
	}
	var (
		wg   sync.WaitGroup
		next int
		mu   sync.Mutex
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				results[i].Name = jobs[i].Name
				if err := ctx.Err(); err != nil {
					results[i].Err = err
					continue
				}
				// Per-job progress needs the job index, so each job runs a
				// private pipeline copy wrapping the batch-level callback.
				pj := run
				if opt.Progress != nil {
					pj.Progress = func(ps PassStats) { opt.Progress(i, ps) }
				}
				jctx, jspan := obs.Start(ctx, "job")
				jspan.SetStr("name", jobs[i].Name)
				// pprof labels make CPU profiles attributable: samples from
				// this job, exact-synthesis ladders included, carry the
				// circuit and preset, so `go tool pprof -tagfocus` can
				// isolate one job's cost from a busy batch.
				var (
					m   *mig.MIG
					st  PipelineStats
					err error
				)
				pprof.Do(jctx, pprof.Labels("circuit", jobs[i].Name, "preset", pj.Name),
					func(jctx context.Context) {
						m, st, err = runJob(jctx, &pj, jobs[i])
					})
				if errors.Is(err, ErrJobPanic) {
					jspan.SetStr("outcome", "panicked")
				}
				jspan.End()
				results[i].M, results[i].Stats, results[i].Err = m, st, err
			}
		}()
	}
	wg.Wait()
	if opt.CacheFile != "" {
		// Even a cancelled batch may have learned classes; persisting them
		// is always safe because a snapshot only skips already-learned
		// synthesis.
		if _, err := db.SaveSnapshotFile(opt.CacheFile, run.Exact5); err != nil {
			log.Printf("engine: snapshot to %s failed: %v", opt.CacheFile, err)
		}
	}
	if err := ctx.Err(); err != nil {
		// Cancellation only fails the batch if it cost results: when every
		// job ran to its own conclusion before the context fired — clean or
		// failed on its own merits, both reported in-band — the result set
		// is as complete as it would have been without the cancellation,
		// and the batch succeeds. Only jobs lost to the context itself
		// make the whole batch report the context error.
		for i := range results {
			if e := results[i].Err; e != nil &&
				(errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded)) {
				return results, err
			}
		}
	}
	return results, nil
}

// runJob executes one job's pipeline with the batch's panic boundary: a
// panic anywhere under the pipeline — a pass, the rewriter, injected
// chaos — becomes a Result.Err wrapping ErrJobPanic, carrying the panic
// value and a bounded stack. Sibling jobs and their bit-identical
// results are unaffected: recovery happens strictly outside the
// pipeline, so it cannot alter what a non-panicking run computes.
func runJob(ctx context.Context, p *Pipeline, j Job) (m *mig.MIG, st PipelineStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if len(stack) > 4<<10 {
				stack = stack[:4<<10]
			}
			m, st, err = nil, PipelineStats{}, fmt.Errorf("%w: %v\n%s", ErrJobPanic, r, stack)
		}
	}()
	// Failpoint "engine/job": per-job chaos. A return spec fails the job
	// in-band; a panic spec exercises the recovery boundary above.
	if ferr := fault.Hit("engine/job"); ferr != nil {
		return nil, PipelineStats{}, ferr
	}
	return p.RunContext(ctx, j.M)
}

// SplitOutputs decomposes m into one job per primary output: each job's
// graph is the transitive fanin cone of that output over the same primary
// inputs. Together with RunBatch this parallelizes the optimization of
// one large MIG across its output cones.
func SplitOutputs(m *mig.MIG, baseName string) []Job {
	jobs := make([]Job, m.NumPOs())
	for i := range jobs {
		jobs[i] = Job{
			Name: fmt.Sprintf("%s.out%d", baseName, i),
			M:    ExtractCone(m, i),
		}
	}
	return jobs
}

// ExtractCone returns a fresh single-output MIG computing output out of
// m: the cone's gates are copied over the full primary-input set, so
// cones of one graph stay input-compatible (see mig.MIG.Cone).
func ExtractCone(m *mig.MIG, out int) *mig.MIG { return m.Cone(out) }
