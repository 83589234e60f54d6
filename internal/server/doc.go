// Package server exposes the batch-optimization engine as an HTTP (JSON)
// service — the production front door of the repository: clients submit
// BENCH or MIG netlists and receive optimized netlists plus the full
// per-pass statistics of the functional-hashing pipeline that produced
// them.
//
// # Endpoints
//
//	POST /v1/optimize        optimize one netlist (OptimizeRequest)
//	POST /v1/optimize/batch  optimize many netlists in one request (BatchRequest)
//	GET  /v1/scripts         list preset scripts and their pass composition
//	GET  /healthz            liveness probe
//	GET  /metrics            Prometheus-style counters
//
// Requests name a preset script ("resyn", "size", "depth", "quick",
// "resyn5", any single pass) or spell out a custom pass list — the
// listing at GET /v1/scripts is engine.PresetNames (the preset table,
// depthopt and the pass grammar), so it is always exactly what the
// optimizer accepts; the
// service runs the script to convergence with engine.RunBatch and
// returns results in job order.
// Setting "stream": true switches the response to application/x-ndjson:
// one "pass" event per executed pass as it completes (via the engine's
// progress callbacks), then a "result" event per job — so long-running
// jobs report their size/depth trajectory live.
//
// # Bounded work
//
// Every request runs under a deadline (client-requested, clamped to
// Config.MaxTimeout) that flows into the engine's context cancellation,
// so no request occupies the service longer than configured. Request
// bodies are capped by Config.MaxBodyBytes before parsing and parsed
// netlists by Config.MaxGates after, and a service-level slot pool
// (Config.MaxConcurrent) bounds the number of optimization jobs in
// flight — queued requests wait for a slot only until their deadline.
// A request holds one slot and runs its jobs one after another, each on
// one goroutine, so a slot is one CPU.
//
// # Concurrency contract
//
// One Server handles any number of concurrent requests. The minimum-MIG
// database is immutable and shared; per-request state (parsed graphs,
// pipelines, rewrite workspaces with their lookup memos) is private to
// the request's goroutines; the only shared mutable state is the atomic
// metrics counters, the slot semaphore and the always-shared on-demand
// 5-input store (classes are learned once per server lifetime; request
// deadlines cancel in-flight ladders, and the migserve_exact5_* metrics
// report its traffic), each of which is concurrency-safe on its own.
//
// # Snapshot persistence
//
// Config.CacheFile makes the learned 5-input store survive restarts: New
// restores the snapshot (corrupt or missing files degrade to a cold
// store with a logged error), a background writer re-snapshots it every
// Config.CacheSnapshotInterval, and Close — which cmd/migserve calls
// after the SIGTERM HTTP drain — writes the final snapshot. Snapshots
// never change optimization results; a warm store only skips
// already-learned synthesis. The persistence state is exported as
// migserve_cache_restored_entries and migserve_cache_snapshot_* metrics.
package server
