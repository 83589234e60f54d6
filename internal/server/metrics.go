package server

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"mighash/internal/engine"
	"mighash/internal/obs"
)

// metrics is the server's counter set, exposed in Prometheus text
// exposition format at GET /metrics. Counters are plain atomics — the
// service's hot path must not pay for a metrics registry — and every
// value is monotonic except the inflight and queue-depth gauges. The
// duration histograms are fed by the per-request tracer (histograms are
// always on; trace retention is opt-in via Config.TraceDir).
type metrics struct {
	start     time.Time
	requests  atomic.Int64 // every HTTP request, any endpoint
	optimize  atomic.Int64 // POST /v1/optimize
	batch     atomic.Int64 // POST /v1/optimize/batch
	responses atomic.Int64 // 2xx responses written (incl. completed streams)
	errors    atomic.Int64 // non-2xx responses written
	inflight  atomic.Int64 // jobs currently holding a pool slot
	// queueDepth counts requests currently waiting for a pool slot: the
	// front line of the 503-vs-served decision. inflight tells you the
	// pool is full; queueDepth tells you how far behind it is.
	queueDepth atomic.Int64

	// shed counts requests rejected by the admission-control watermark
	// before they joined the slot queue (a subset of error_responses).
	shed atomic.Int64

	passes    atomic.Int64 // executed pipeline passes
	cacheHits atomic.Int64 // 4-input lookup memo hits, summed over jobs
	cacheMiss atomic.Int64 // 4-input lookup memo misses, summed over jobs
	// Choice-aware extraction traffic, summed over completed jobs.
	extractChoices atomic.Int64 // recorded (cut, candidate) choices
	extractSaved   atomic.Int64 // gates saved over the greedy twins

	// Panic isolation: a handler panic is caught at the dispatch boundary
	// (500 naming the request ID), a job panic at the engine's per-job
	// boundary (in-band job error). Both should be flatlined at zero;
	// either climbing is a bug report with a stack already in the log.
	handlerPanics atomic.Int64
	jobPanics     atomic.Int64

	// Snapshot counters (exported only with Config.CacheFile).
	cacheRestored   atomic.Int64 // records warm-started from the snapshot
	snapshots       atomic.Int64 // snapshot attempts (periodic + Close)
	snapshotErrors  atomic.Int64 // snapshot attempts that failed
	snapshotEntries atomic.Int64 // entries in the last successful snapshot
	// snapshotConsecErr is a gauge: failures since the last success. See
	// snapshotCache for why it exists next to the monotonic error count.
	snapshotConsecErr atomic.Int64

	// Duration histograms (created by New; all use the default buckets).
	reqHist    *obs.Histogram // whole optimize/batch requests
	passHist   *obs.Histogram // executed pipeline passes
	ladderHist *obs.Histogram // on-demand exact-synthesis ladders
	slotWait   *obs.Histogram // time spent waiting for a pool slot

	// presets holds the per-script rolling QoR aggregates behind
	// GET /v1/stats and the labeled /metrics series. It is the one
	// source of the job and gate counts: the service-wide totals are its
	// sums.
	presets statsRegistry
}

// observe folds one finished batch of the named script into the
// counters.
func (m *metrics) observe(script string, results []engine.Result) {
	m.presets.observePreset(script, results)
	for _, r := range results {
		if r.Err != nil {
			if errors.Is(r.Err, engine.ErrJobPanic) {
				m.jobPanics.Add(1)
			}
			continue
		}
		m.passes.Add(int64(len(r.Stats.Passes)))
		m.cacheHits.Add(int64(r.Stats.CacheHits))
		m.cacheMiss.Add(int64(r.Stats.CacheMisses))
		m.extractChoices.Add(int64(r.Stats.Choices))
		m.extractSaved.Add(int64(r.Stats.ExtractSaved))
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := &s.metrics
	snaps := m.presets.snapshot()
	total := sumPresets(snaps)
	vals := map[string]int64{
		"migserve_requests_total":          m.requests.Load(),
		"migserve_optimize_requests_total": m.optimize.Load(),
		"migserve_batch_requests_total":    m.batch.Load(),
		"migserve_responses_total":         m.responses.Load(),
		"migserve_error_responses_total":   m.errors.Load(),
		"migserve_inflight_jobs":           m.inflight.Load(),
		"migserve_slot_queue_depth":        m.queueDepth.Load(),
		"migserve_shed_total":              m.shed.Load(),
		"migserve_handler_panics_total":    m.handlerPanics.Load(),
		"migserve_job_panics_total":        m.jobPanics.Load(),
		"migserve_jobs_completed_total":    total.Jobs,
		"migserve_jobs_failed_total":       total.Failed,
		"migserve_input_gates_total":       total.GatesIn,
		"migserve_output_gates_total":      total.GatesOut,
		"migserve_passes_total":            m.passes.Load(),
		"migserve_npn_cache_hits_total":    m.cacheHits.Load(),
		"migserve_npn_cache_misses_total":  m.cacheMiss.Load(),
		"migserve_uptime_seconds":          int64(time.Since(m.start).Seconds()),
		"migserve_max_concurrent_jobs":     int64(s.cfg.MaxConcurrent),
		"migserve_max_body_bytes":          s.cfg.MaxBodyBytes,
	}
	if s.cfg.CacheFile != "" {
		vals["migserve_cache_restored_entries"] = m.cacheRestored.Load()
		vals["migserve_cache_snapshot_total"] = m.snapshots.Load()
		vals["migserve_cache_snapshot_errors_total"] = m.snapshotErrors.Load()
		vals["migserve_cache_snapshot_entries"] = m.snapshotEntries.Load()
		vals["migserve_cache_snapshot_consecutive_errors"] = m.snapshotConsecErr.Load()
	}
	// The on-demand 5-input store: learned classes and their candidate
	// menus (gauges), ladders run, and ladders that blew the conflict or
	// gate budget (named synth_timeouts for the dashboards that read it).
	vals["migserve_exact5_entries"] = int64(s.exact5.Len())
	vals["migserve_exact5_synth_total"] = int64(s.exact5.Synths())
	vals["migserve_exact5_synth_timeouts"] = int64(s.exact5.Failures())
	vals["migserve_exact5_candidates"] = int64(s.exact5.Candidates())
	// Choice-aware extraction traffic of completed jobs.
	vals["migserve_extract_choices_total"] = m.extractChoices.Load()
	vals["migserve_extract_saved_gates_total"] = m.extractSaved.Load()
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, n := range names {
		fmt.Fprintf(w, "%s %d\n", n, vals[n])
	}
	// Per-preset QoR series, labeled by script — the /metrics view of the
	// same rolling aggregates GET /v1/stats returns as JSON. The quantile
	// gauges are hand-emitted: obs.Histogram's exposition writer has no
	// label support, and two summary-style gauges per preset beat a full
	// labeled bucket set nobody graphs.
	for _, snap := range snaps {
		ps := snap.stats
		fmt.Fprintf(w, "migserve_preset_jobs_total{script=%q} %d\n", snap.name, ps.jobs.Load())
		fmt.Fprintf(w, "migserve_preset_jobs_failed_total{script=%q} %d\n", snap.name, ps.failed.Load())
		fmt.Fprintf(w, "migserve_preset_input_gates_total{script=%q} %d\n", snap.name, ps.gatesIn.Load())
		fmt.Fprintf(w, "migserve_preset_gates_saved_total{script=%q} %d\n", snap.name, ps.gatesIn.Load()-ps.gatesOut.Load())
		fmt.Fprintf(w, "migserve_preset_runtime_seconds{script=%q,quantile=\"0.5\"} %g\n", snap.name, ps.hist.Quantile(0.5).Seconds())
		fmt.Fprintf(w, "migserve_preset_runtime_seconds{script=%q,quantile=\"0.99\"} %g\n", snap.name, ps.hist.Quantile(0.99).Seconds())
	}
	m.reqHist.WritePrometheus(w, "migserve_request_duration_seconds")
	m.passHist.WritePrometheus(w, "migserve_pass_duration_seconds")
	m.ladderHist.WritePrometheus(w, "migserve_exact5_ladder_duration_seconds")
	m.slotWait.WritePrometheus(w, "migserve_slot_wait_seconds")
}
