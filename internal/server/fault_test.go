package server

import (
	"bufio"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"mighash/internal/fault"
)

// metricValue scrapes one plain counter/gauge from GET /metrics.
func metricValue(t *testing.T, baseURL, name string) int64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("metric %s has non-integer value %q", name, fields[1])
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestHandlerPanicIsolated: a panic in the handler path becomes a
// counted 500 that names the request ID, and the server keeps serving.
func TestHandlerPanicIsolated(t *testing.T) {
	defer fault.Reset()
	s, hs := newTestServer(t, Config{})
	if err := fault.Enable("server/handler", "count(1)*panic(injected handler panic)"); err != nil {
		t.Fatal(err)
	}
	errsBefore := s.metrics.errors.Load()
	resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{Netlist: fullAdderBench})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d, want 500", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("500 from a panic lost the X-Request-ID header")
	}
	body := decodeBody[errorResponse](t, resp)
	if !strings.Contains(body.Error, id) {
		t.Fatalf("error body %q should name request id %s", body.Error, id)
	}
	if got := s.metrics.handlerPanics.Load(); got != 1 {
		t.Fatalf("handlerPanics = %d, want 1", got)
	}
	if got := s.metrics.errors.Load() - errsBefore; got != 1 {
		t.Fatalf("the panic 500 bumped error_responses by %d, want 1", got)
	}

	// The failpoint is exhausted; the very next request must succeed.
	resp = postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{Netlist: fullAdderBench})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the recovered panic returned %d, want 200", resp.StatusCode)
	}
	if got := metricValue(t, hs.URL, "migserve_handler_panics_total"); got != 1 {
		t.Fatalf("migserve_handler_panics_total = %d, want 1", got)
	}
}

// TestJobPanicSurfacesInBand: a panic inside a job (here injected at the
// engine's "engine/job" failpoint) fails that request with a 500 whose
// body says so, counts into migserve_job_panics_total, and never reaches
// the handler boundary.
func TestJobPanicSurfacesInBand(t *testing.T) {
	defer fault.Reset()
	s, hs := newTestServer(t, Config{})
	if err := fault.Enable("engine/job", "count(1)*panic(injected job panic)"); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{Netlist: fullAdderBench})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("job panic returned %d, want 500", resp.StatusCode)
	}
	body := decodeBody[errorResponse](t, resp)
	if !strings.Contains(body.Error, "panicked") || !strings.Contains(body.Error, "injected job panic") {
		t.Fatalf("error body %q should carry the job panic", body.Error)
	}
	if got := s.metrics.jobPanics.Load(); got != 1 {
		t.Fatalf("jobPanics = %d, want 1", got)
	}
	if got := s.metrics.handlerPanics.Load(); got != 0 {
		t.Fatalf("job panic leaked to the handler boundary (handlerPanics = %d)", got)
	}
	resp = postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{Netlist: fullAdderBench})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the job panic returned %d, want 200", resp.StatusCode)
	}
}

// TestSlotTimeout503CarriesRetryAfter: the queue-timeout 503 carries a
// Retry-After hint in whole seconds, clamped to [1, 60].
func TestSlotTimeout503CarriesRetryAfter(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	s.slots <- struct{}{} // occupy the only slot
	defer func() { <-s.slots }()
	resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{Netlist: fullAdderBench, TimeoutMS: 50})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated pool returned %d, want 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 60]", resp.Header.Get("Retry-After"))
	}
}

// TestShedWatermark: once the median request duration says the queue
// ahead cannot drain inside the deadline, the request is rejected up
// front — 503 with Retry-After, counted in migserve_shed_total — and a
// drained queue admits requests again.
func TestShedWatermark(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	// Manufacture history: the median request takes seconds…
	for i := 0; i < shedMinSamples; i++ {
		s.metrics.reqHist.Observe(2 * time.Second)
	}
	// …and someone is already queued.
	s.metrics.queueDepth.Add(1)
	resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{Netlist: fullAdderBench, TimeoutMS: 100})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded server returned %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 lost its Retry-After header")
	}
	if got := s.metrics.shed.Load(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
	// A client with a deadline beyond the backlog is admitted.
	resp = postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{Netlist: fullAdderBench, TimeoutMS: 60_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patient request returned %d, want 200", resp.StatusCode)
	}
	// With the queue drained the short deadline is fine too.
	s.metrics.queueDepth.Add(-1)
	resp = postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{Netlist: fullAdderBench, TimeoutMS: 5_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after drain returned %d, want 200", resp.StatusCode)
	}
	if got := s.metrics.shed.Load(); got != 1 {
		t.Fatalf("shed after drain = %d, want still 1", got)
	}
}

// TestShedFailpoint: the "server/shed" failpoint forces the overload
// verdict — the deterministic lever the chaos CI uses to prove the
// 503 / Retry-After / client-retry contract end to end.
func TestShedFailpoint(t *testing.T) {
	defer fault.Reset()
	s, hs := newTestServer(t, Config{})
	if err := fault.Enable("server/shed", "count(1)*return(injected overload)"); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{Netlist: fullAdderBench})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("injected overload: status %d, Retry-After %q; want 503 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if got := s.metrics.shed.Load(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
	resp = postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{Netlist: fullAdderBench})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the injected shed returned %d, want 200", resp.StatusCode)
	}
}

// TestMetricsExposeRobustnessSeries: every degraded state has a metric a
// dashboard can alert on, present from the first scrape.
func TestMetricsExposeRobustnessSeries(t *testing.T) {
	dir := t.TempDir()
	_, hs := newTestServer(t, Config{CacheFile: dir + "/m.cache"})
	for _, name := range []string{
		"migserve_shed_total",
		"migserve_handler_panics_total",
		"migserve_job_panics_total",
		"migserve_cache_snapshot_consecutive_errors",
	} {
		if got := metricValue(t, hs.URL, name); got != 0 {
			t.Errorf("%s = %d on a fresh server, want 0", name, got)
		}
	}
}

// TestSnapshotConsecutiveErrorsGauge: the gauge climbs across
// back-to-back snapshot failures and snaps to zero on the first success
// — the signal separating a blip from a persistently broken disk.
func TestSnapshotConsecutiveErrorsGauge(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	s, hs := newTestServer(t, Config{CacheFile: dir + "/m.cache", CacheSnapshotInterval: -1})
	t.Cleanup(func() { s.Close() })
	if err := fault.Enable("db/snapshot-rename", "return(injected EIO)"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := s.snapshotCache(); err == nil {
			t.Fatal("snapshot with an injected rename fault succeeded")
		}
		if got := metricValue(t, hs.URL, "migserve_cache_snapshot_consecutive_errors"); got != int64(i) {
			t.Fatalf("consecutive errors after failure %d = %d", i, got)
		}
	}
	if got := metricValue(t, hs.URL, "migserve_cache_snapshot_errors_total"); got != 2 {
		t.Fatalf("snapshot errors total = %d, want 2", got)
	}
	fault.Disable("db/snapshot-rename")
	if err := s.snapshotCache(); err != nil {
		t.Fatalf("snapshot after clearing the fault: %v", err)
	}
	if got := metricValue(t, hs.URL, "migserve_cache_snapshot_consecutive_errors"); got != 0 {
		t.Fatalf("consecutive errors after a success = %d, want 0", got)
	}
	if got := metricValue(t, hs.URL, "migserve_cache_snapshot_errors_total"); got != 2 {
		t.Fatalf("snapshot errors total moved on success: %d", got)
	}
}
