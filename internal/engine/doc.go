// Package engine turns the single-shot optimization passes of this
// repository into a production-style optimization engine:
//
//   - Pass wraps one transformation (a functional-hashing configuration
//     of internal/rewrite, or the algebraic depth optimizer of
//     internal/depthopt) behind a uniform interface. PassByName resolves
//     "depthopt" or any name of the rewrite pass grammar: the paper's
//     TF, T, TFD, TD and BF, with the top-down four suffixed by "5"
//     (K = 5) and/or "x"/"xd" (choice-aware extraction), e.g. "TF5x".
//   - Pipeline composes named passes into a script and runs the script to
//     convergence, keeping the best graph seen under its extract.Objective
//     (size then depth, or depth then size) and reporting per-pass
//     statistics. Preset scripts ("resyn", "size", "depth", "resyn5", …)
//     are one table of pass lists; custom scripts are built with New or
//     NewScript. PresetNames lists the presets, "depthopt" and the
//     grammar — the CLIs and GET /v1/scripts derive from it.
//   - RunBatch optimizes many MIGs concurrently on a bounded worker pool
//     with deterministic result ordering and context cancellation. It is
//     the engine's only parallelism: every pipeline run is one goroutine,
//     so a single large graph is spread over CPUs by splitting it into
//     output cones first (SplitOutputs).
//
// Each pipeline run owns one rewrite workspace, and with it one lookup
// memo: the canonicalization + database lookup of every 4-feasible cut —
// the hot path of functional hashing — is memoized across the passes and
// iterations of the run. K = 5 scripts
// additionally share an on-demand exact-synthesis store (Pipeline.Exact5
// / BatchOptions.Exact5, budget via BatchOptions.Synth5): 5-input classes
// are learned once per process and fed to every worker, with the run's
// context cancelling in-flight ladders. BatchOptions.CacheFile extends
// the learned store across processes: the batch warm-starts it from an
// on-disk snapshot and saves it back atomically afterwards, with corrupt
// snapshots degrading to a cold store (logged, never fatal). Optimized
// graphs are bit-identical warm or cold — a warm store just skips the
// ladders.
//
// Long-running consumers observe progress through callbacks:
// Pipeline.Progress fires after every executed pass, and
// BatchOptions.Progress adds the job index — this is what the HTTP
// service (internal/server) streams to clients as JSON lines.
//
// Concurrency contract: a Pipeline is immutable during Run/RunContext and
// may drive any number of concurrent runs; each run allocates its own
// rewrite workspace, so runs share only the immutable database and the
// (concurrency-safe) 5-input store. Within RunBatch, per-job stats and
// graphs are deterministic — independent of the batch worker count.
// Pass values are stateless and shareable; PassStats/PipelineStats are
// plain data.
package engine
