package server

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mighash/internal/engine"
	"mighash/internal/obs"
)

// presetStats is one preset script's rolling QoR aggregate: how many
// circuits it optimized, what it saved, and its runtime distribution.
// Counters are atomics and the histogram is internally synchronized, so
// observing a finished batch never takes the registry lock.
type presetStats struct {
	jobs     atomic.Int64
	failed   atomic.Int64
	gatesIn  atomic.Int64
	gatesOut atomic.Int64
	hist     *obs.Histogram // per-job optimization runtime
}

// statsRegistry maps script name → presetStats, created lazily on first
// observation. The read-mostly lock only guards map shape: after a
// preset's first job, updates are lock-free on the RLock path.
type statsRegistry struct {
	mu sync.RWMutex
	m  map[string]*presetStats
}

func (sr *statsRegistry) get(script string) *presetStats {
	sr.mu.RLock()
	ps := sr.m[script]
	sr.mu.RUnlock()
	if ps != nil {
		return ps
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if ps = sr.m[script]; ps == nil {
		if sr.m == nil {
			sr.m = map[string]*presetStats{}
		}
		ps = &presetStats{hist: obs.NewHistogram()}
		sr.m[script] = ps
	}
	return ps
}

// snapshot returns the registry's presets in name order.
func (sr *statsRegistry) snapshot() []presetSnapshot {
	sr.mu.RLock()
	defer sr.mu.RUnlock()
	out := make([]presetSnapshot, 0, len(sr.m))
	for name, ps := range sr.m {
		out = append(out, presetSnapshot{name: name, stats: ps})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

type presetSnapshot struct {
	name  string
	stats *presetStats
}

// observePreset folds one finished batch of script into the registry.
// The caller names the script — the request's pipeline — because a job
// that failed carries no stats to read it from, and a failure must still
// land in its preset's failed counter.
func (sr *statsRegistry) observePreset(script string, results []engine.Result) {
	ps := sr.get(script)
	for _, r := range results {
		if r.Err != nil {
			ps.failed.Add(1)
			continue
		}
		ps.jobs.Add(1)
		ps.gatesIn.Add(int64(r.Stats.SizeBefore))
		ps.gatesOut.Add(int64(r.Stats.SizeAfter))
		ps.hist.Observe(r.Stats.Elapsed)
	}
}

// sumPresets returns the service-wide job and gate totals: the sums of
// the per-preset aggregates, so /v1/stats, its per-preset rows and
// /metrics can never disagree.
func sumPresets(snaps []presetSnapshot) PresetStats {
	var t PresetStats
	for _, snap := range snaps {
		t.Jobs += snap.stats.jobs.Load()
		t.Failed += snap.stats.failed.Load()
		t.GatesIn += snap.stats.gatesIn.Load()
		t.GatesOut += snap.stats.gatesOut.Load()
	}
	return t
}

// PresetStats is one preset's aggregate in the GET /v1/stats response.
type PresetStats struct {
	Script string `json:"script"`
	// Jobs/Failed count optimization jobs since process start.
	Jobs   int64 `json:"jobs"`
	Failed int64 `json:"failed,omitempty"`
	// GatesIn/GatesOut/GatesSaved sum completed jobs' sizes.
	GatesIn    int64 `json:"gates_in"`
	GatesOut   int64 `json:"gates_out"`
	GatesSaved int64 `json:"gates_saved"`
	// Runtime quantiles of completed jobs, from the rolling histogram
	// (conservative bucket-upper-bound estimates; see obs.Histogram).
	RuntimeP50MS int64 `json:"runtime_p50_ms"`
	RuntimeP99MS int64 `json:"runtime_p99_ms"`
}

// StatsResponse is the body of GET /v1/stats: the service-wide totals
// plus one rolling QoR aggregate per preset script served so far.
type StatsResponse struct {
	UptimeSeconds int64         `json:"uptime_seconds"`
	Requests      int64         `json:"requests"`
	JobsCompleted int64         `json:"jobs_completed"`
	JobsFailed    int64         `json:"jobs_failed"`
	Presets       []PresetStats `json:"presets"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snaps := s.metrics.presets.snapshot()
	total := sumPresets(snaps)
	resp := StatsResponse{
		UptimeSeconds: int64(time.Since(s.metrics.start).Seconds()),
		Requests:      s.metrics.requests.Load(),
		JobsCompleted: total.Jobs,
		JobsFailed:    total.Failed,
		Presets:       []PresetStats{},
	}
	for _, snap := range snaps {
		ps := snap.stats
		resp.Presets = append(resp.Presets, PresetStats{
			Script:       snap.name,
			Jobs:         ps.jobs.Load(),
			Failed:       ps.failed.Load(),
			GatesIn:      ps.gatesIn.Load(),
			GatesOut:     ps.gatesOut.Load(),
			GatesSaved:   ps.gatesIn.Load() - ps.gatesOut.Load(),
			RuntimeP50MS: ps.hist.Quantile(0.5).Milliseconds(),
			RuntimeP99MS: ps.hist.Quantile(0.99).Milliseconds(),
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}
