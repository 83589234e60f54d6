package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"mighash/internal/fault"
)

// TestStatsEndpoint is the /v1/stats acceptance path: after serving
// jobs under two presets, the endpoint returns live per-preset
// aggregates — job counts, gate savings, runtime quantiles — and the
// same numbers appear as labeled /metrics series.
func TestStatsEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	// Before any optimization the preset list is present but empty.
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	empty := decodeBody[StatsResponse](t, resp)
	if len(empty.Presets) != 0 {
		t.Errorf("cold server presets = %+v, want none", empty.Presets)
	}

	sine := suiteBench(t, "Sine")
	for _, script := range []string{"quick", "quick", "size"} {
		r := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{
			Netlist: sine, ScriptSpec: ScriptSpec{Script: script}})
		if r.StatusCode != http.StatusOK {
			t.Fatalf("optimize (%s) status = %d", script, r.StatusCode)
		}
		io.Copy(io.Discard, r.Body)
	}

	resp, err = http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stats := decodeBody[StatsResponse](t, resp)
	if stats.JobsCompleted != 3 {
		t.Errorf("jobs_completed = %d, want 3", stats.JobsCompleted)
	}
	if len(stats.Presets) != 2 {
		t.Fatalf("presets = %+v, want quick and size", stats.Presets)
	}
	// Presets are name-sorted: quick, size.
	q, sz := stats.Presets[0], stats.Presets[1]
	if q.Script != "quick" || sz.Script != "size" {
		t.Fatalf("preset order = %q, %q", q.Script, sz.Script)
	}
	if q.Jobs != 2 || sz.Jobs != 1 {
		t.Errorf("job counts = %d/%d, want 2/1", q.Jobs, sz.Jobs)
	}
	if q.GatesIn == 0 || q.GatesSaved <= 0 || q.GatesSaved != q.GatesIn-q.GatesOut {
		t.Errorf("quick gate aggregate inconsistent: %+v", q)
	}
	// Quantiles are conservative bucket upper bounds of real
	// observations, so they must be positive and ordered.
	if q.RuntimeP50MS <= 0 || q.RuntimeP99MS < q.RuntimeP50MS {
		t.Errorf("quick runtime quantiles p50=%dms p99=%dms", q.RuntimeP50MS, q.RuntimeP99MS)
	}

	// The same aggregates surface as labeled /metrics series.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`migserve_preset_jobs_total{script="quick"} 2`,
		`migserve_preset_jobs_total{script="size"} 1`,
		`migserve_preset_gates_saved_total{script="quick"}`,
		`migserve_preset_runtime_seconds{script="quick",quantile="0.5"}`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestStatsFailedJobsDoNotPolluteAggregates: a job that fails per-job
// (here an injected in-band outage at the "engine/job" failpoint, which
// like a deadline leaves the job without stats) lands in its preset's
// failed counter, not its QoR aggregates — and the service-wide totals
// on /v1/stats and /metrics, summed from the same registry, agree.
func TestStatsFailedJobsDoNotPolluteAggregates(t *testing.T) {
	defer fault.Reset()
	_, hs := newTestServer(t, Config{})
	if err := fault.Enable("engine/job", "count(1)*return(injected outage)"); err != nil {
		t.Fatal(err)
	}
	r := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{
		Netlist: suiteBench(t, "Sine"), ScriptSpec: ScriptSpec{Script: "resyn"}})
	io.Copy(io.Discard, r.Body)
	if r.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed job returned %d, want 500", r.StatusCode)
	}
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stats := decodeBody[StatsResponse](t, resp)
	if len(stats.Presets) != 1 {
		t.Fatalf("presets = %+v, want resyn alone", stats.Presets)
	}
	if p := stats.Presets[0]; p.Script != "resyn" || p.Failed != 1 || p.Jobs != 0 || p.GatesIn != 0 {
		t.Errorf("resyn aggregate = %+v, want failed 1, jobs 0, no gates", p)
	}
	if stats.JobsFailed != 1 || stats.JobsCompleted != 0 {
		t.Errorf("totals: %d failed, %d completed; want 1, 0", stats.JobsFailed, stats.JobsCompleted)
	}
	for name, want := range map[string]int64{
		`migserve_preset_jobs_failed_total{script="resyn"}`: 1,
		`migserve_preset_jobs_total{script="resyn"}`:        0,
		"migserve_jobs_failed_total":                        1,
		"migserve_jobs_completed_total":                     0,
	} {
		if got := metricValue(t, hs.URL, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
