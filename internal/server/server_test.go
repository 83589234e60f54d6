package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mighash/internal/circuits"
	"mighash/internal/db"
	"mighash/internal/mig"
)

// fullAdderBench is a tiny hand-written BENCH netlist exercising MAJ,
// XOR and BUF lowering.
const fullAdderBench = `
INPUT(a)
INPUT(b)
INPUT(cin)
OUTPUT(sum)
OUTPUT(cout)
c = MAJ(a, b, cin)
s = XOR(a, b, cin)
sum = BUF(s)
cout = BUF(c)
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

// suiteBench renders one internal/circuits benchmark as a BENCH netlist.
func suiteBench(t *testing.T, name string) string {
	t.Helper()
	spec, ok := circuits.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	var b strings.Builder
	if err := spec.Build().WriteBENCH(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestOptimizeEndToEnd is the acceptance path: a BENCH netlist from
// internal/circuits goes over HTTP and comes back optimized, with
// per-pass stats, and the returned netlist round-trips bit-identically.
func TestOptimizeEndToEnd(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	netlist := suiteBench(t, "Sine")
	resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{
		Name:       "sine",
		Netlist:    netlist,
		ScriptSpec: ScriptSpec{Script: "quick"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	out := decodeBody[OptimizeResponse](t, resp)
	if out.Name != "sine" {
		t.Errorf("name = %q", out.Name)
	}
	if out.Stats.SizeAfter >= out.Stats.SizeBefore {
		t.Errorf("no size improvement: %d -> %d", out.Stats.SizeBefore, out.Stats.SizeAfter)
	}
	if len(out.Stats.Passes) == 0 {
		t.Error("no per-pass stats")
	}
	// Round-trip: the returned netlist must parse, and re-writing the
	// parse must reproduce it byte-for-byte.
	m, err := mig.ReadBENCH(strings.NewReader(out.Netlist))
	if err != nil {
		t.Fatalf("returned netlist does not parse: %v", err)
	}
	if m.Size() != out.Stats.SizeAfter {
		t.Errorf("returned netlist has size %d, stats say %d", m.Size(), out.Stats.SizeAfter)
	}
	var again strings.Builder
	if err := m.WriteBENCH(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out.Netlist {
		t.Error("returned netlist does not round-trip byte-identically")
	}
}

func TestOptimizeVerify(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{
		Netlist:    fullAdderBench,
		ScriptSpec: ScriptSpec{Script: "size"},
		Verify:     true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	out := decodeBody[OptimizeResponse](t, resp)
	if out.Verified == nil || !*out.Verified {
		t.Errorf("verified = %v, want true", out.Verified)
	}
	if out.SimClean != nil {
		t.Errorf("sim_clean = %v on a SAT-proven result, want absent", *out.SimClean)
	}
}

// TestOptimizeVerifyModes covers the verify_mode ladder: "sim" is
// refute-only (SimClean, never Verified), "sat" and "sim+sat" prove
// (Verified), and an unknown mode is a client error.
func TestOptimizeVerifyModes(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for _, mode := range []string{"sat", "sim", "sim+sat"} {
		resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{
			Netlist:    fullAdderBench,
			ScriptSpec: ScriptSpec{Script: "size"},
			VerifyMode: mode,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %s: status = %d, want 200", mode, resp.StatusCode)
		}
		out := decodeBody[OptimizeResponse](t, resp)
		if mode == "sim" {
			if out.Verified != nil {
				t.Errorf("mode sim: verified = %v, want absent (refute-only)", *out.Verified)
			}
			if out.SimClean == nil || !*out.SimClean {
				t.Errorf("mode sim: sim_clean = %v, want true", out.SimClean)
			}
		} else {
			if out.Verified == nil || !*out.Verified {
				t.Errorf("mode %s: verified = %v, want true", mode, out.Verified)
			}
		}
	}
	resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{
		Netlist:    fullAdderBench,
		VerifyMode: "telepathy",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown verify_mode: status = %d, want 400", resp.StatusCode)
	}
}

func TestBatchOrderAndMIGFormat(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	// A second job in the native MIG text format.
	fa := mig.New(3)
	s, c := fa.FullAdder(fa.Input(0), fa.Input(1), fa.Input(2))
	fa.AddOutput(s)
	fa.AddOutput(c)
	var migText strings.Builder
	if err := fa.WriteText(&migText); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, hs.URL+"/v1/optimize/batch", BatchRequest{
		Jobs: []BatchJobRequest{
			{Name: "bench-job", Netlist: fullAdderBench},
			{Name: "mig-job", Netlist: migText.String(), Format: "mig"},
		},
		ScriptSpec: ScriptSpec{Script: "quick"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	out := decodeBody[BatchResponse](t, resp)
	if len(out.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(out.Results))
	}
	if out.Results[0].Name != "bench-job" || out.Results[1].Name != "mig-job" {
		t.Errorf("results out of order: %q, %q", out.Results[0].Name, out.Results[1].Name)
	}
	if _, err := mig.ReadText(strings.NewReader(out.Results[1].Netlist)); err != nil {
		t.Errorf("mig-format response does not parse: %v", err)
	}
}

func TestScriptsEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/v1/scripts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := decodeBody[map[string][]ScriptInfo](t, resp)
	names := map[string]bool{}
	for _, s := range out["scripts"] {
		names[s.Name] = true
		if len(s.Passes) == 0 {
			t.Errorf("script %q lists no passes", s.Name)
		}
	}
	for _, want := range []string{"resyn", "size", "depth", "quick", "BF"} {
		if !names[want] {
			t.Errorf("script %q missing from listing", want)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{
		Netlist:    fullAdderBench,
		ScriptSpec: ScriptSpec{Script: "quick"},
	})
	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"migserve_requests_total",
		"migserve_jobs_completed_total 1",
		"migserve_inflight_jobs 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

func TestOversizedBody(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxBodyBytes: 1024})
	big := OptimizeRequest{Netlist: strings.Repeat("# padding\n", 1024)}
	resp := postJSON(t, hs.URL+"/v1/optimize", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	out := decodeBody[errorResponse](t, resp)
	if out.Error == "" {
		t.Error("413 response has no JSON error body")
	}
}

func TestOversizedNetlist(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxGates: 3})
	resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{Netlist: fullAdderBench})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	out := decodeBody[errorResponse](t, resp)
	if !strings.Contains(out.Error, "gate limit") && !strings.Contains(out.Error, "gates") {
		t.Errorf("unhelpful error: %q", out.Error)
	}
}

// TestOversizedMIGHeader pins the mig front door: a header declaring
// more inputs and gates together than MaxGates is refused with 413 before
// anything is built, so the 18-byte body that once built a 10,000,000-input
// graph (154 MiB) now costs no more than the request around it. A header
// exactly at the cap gets past the check and fails as truncated (400).
func TestOversizedMIGHeader(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxGates: 1000})
	for _, c := range []struct {
		netlist string
		status  int
	}{
		{"mig 10000000 0 0", http.StatusRequestEntityTooLarge},
		{"mig 10 991 0\n", http.StatusRequestEntityTooLarge},
		{"mig 10 990 0\n", http.StatusBadRequest},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{Netlist: c.netlist, Format: "mig"})
		out := decodeBody[errorResponse](t, resp)
		runtime.ReadMemStats(&after)
		if resp.StatusCode != c.status {
			t.Errorf("%q: status = %d, want %d (%s)", c.netlist, resp.StatusCode, c.status, out.Error)
		}
		if c.status == http.StatusRequestEntityTooLarge && !strings.Contains(out.Error, "inputs and gates") {
			t.Errorf("%q: unhelpful error: %q", c.netlist, out.Error)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%q: the request allocated %d bytes", c.netlist, grew)
		}
	}
}

// TestOversizedBENCHBody: a 4 MiB BENCH body of chained MAJ lines over
// MaxGates is a 413 whose parse allocates about one copy of the body,
// not the graph the body declares: the reader stops at the line that
// passes the cap. The same body under an unknown format, refused before
// parsing, measures what decoding the request costs either way.
func TestOversizedBENCHBody(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxGates: 1000})
	var b []byte
	for i := 0; i < 64; i++ {
		b = fmt.Appendf(b, "INPUT(x%d)\n", i)
	}
	b = append(b, "OUTPUT(g0)\ng0 = MAJ(x0, x1, x2)\n"...)
	for i := 1; len(b) < 4<<20; i++ {
		b = fmt.Appendf(b, "g%d = MAJ(g%d, x%d, x%d)\n", i, i-1, i%64, (i+7)%64)
	}
	post := func(format string) (int, string, uint64) {
		raw, err := json.Marshal(OptimizeRequest{Netlist: string(b), Format: format})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Post(hs.URL+"/v1/optimize", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out := decodeBody[errorResponse](t, resp)
		runtime.ReadMemStats(&after)
		return resp.StatusCode, out.Error, after.TotalAlloc - before.TotalAlloc
	}
	post("blif") // opens the keep-alive connection the measured requests reuse
	status, msg, decode := post("blif")
	if status != http.StatusBadRequest {
		t.Fatalf("unknown format: status = %d (%s), want 400", status, msg)
	}
	status, msg, total := post("bench")
	if status != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "inputs and gates") {
		t.Fatalf("status = %d (%s), want 413", status, msg)
	}
	parse := int64(total) - int64(decode)
	t.Logf("%d-byte netlist: request %d bytes, of which decoding %d and parsing %d", len(b), total, decode, parse)
	if parse > 2*int64(len(b)) {
		t.Errorf("parsing a refused %d-byte netlist allocated %d bytes", len(b), parse)
	}
}

func TestBadRequests(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	cases := []struct {
		name string
		url  string
		body string
	}{
		{"malformed json", "/v1/optimize", "{netlist:"},
		{"empty netlist", "/v1/optimize", `{"netlist":""}`},
		{"bad netlist", "/v1/optimize", `{"netlist":"x = FROB(y)"}`},
		{"unknown script", "/v1/optimize", `{"netlist":"INPUT(a)\nOUTPUT(o)\no = BUF(a)\n","script":"nope"}`},
		{"unknown pass", "/v1/optimize", `{"netlist":"INPUT(a)\nOUTPUT(o)\no = BUF(a)\n","passes":["XX"]}`},
		{"unknown format", "/v1/optimize", `{"netlist":"INPUT(a)","format":"blif"}`},
		{"negative mig inputs", "/v1/optimize", `{"netlist":"mig -2 0 0\n","format":"mig"}`},
		{"negative mig gates", "/v1/optimize", `{"netlist":"mig 1 -5 0\n","format":"mig"}`},
		{"empty batch", "/v1/optimize/batch", `{"jobs":[]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+tc.url, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			if out := decodeBody[errorResponse](t, resp); out.Error == "" {
				t.Error("400 response has no JSON error body")
			}
		})
	}
	if got := s.metrics.handlerPanics.Load(); got != 0 {
		t.Errorf("bad requests panicked the handler %d times", got)
	}
}

// TestDeadline proves that a request-level deadline cancels the
// optimization cleanly: a 1 ms budget cannot complete any pass, so the
// service must answer with a timeout status and a JSON error, not hang.
func TestDeadline(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{
		Netlist:    suiteBench(t, "Sine"),
		ScriptSpec: ScriptSpec{Script: "resyn"},
		TimeoutMS:  1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	out := decodeBody[errorResponse](t, resp)
	if !strings.Contains(out.Error, "deadline") {
		t.Errorf("error does not mention the deadline: %q", out.Error)
	}
}

// TestSlotQueueTimeout proves a request that never gets an optimization
// slot fails with 503 at its deadline instead of queueing forever.
func TestSlotQueueTimeout(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	s.slots <- struct{}{} // occupy the only slot
	defer func() { <-s.slots }()
	resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{
		Netlist:   fullAdderBench,
		TimeoutMS: 50,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

func TestStreaming(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	raw, _ := json.Marshal(OptimizeRequest{
		Name:       "fa",
		Netlist:    fullAdderBench,
		ScriptSpec: ScriptSpec{Script: "quick"},
		Stream:     true,
	})
	resp, err := http.Post(hs.URL+"/v1/optimize", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q, want application/x-ndjson", ct)
	}
	var passes, results int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "pass":
			passes++
			if ev.Pass == nil || ev.Job != "fa" {
				t.Errorf("malformed pass event: %+v", ev)
			}
		case "result":
			results++
			if ev.Result == nil || ev.Result.Netlist == "" {
				t.Errorf("malformed result event: %+v", ev)
			}
		case "error":
			t.Errorf("unexpected error event: %+v", ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if passes == 0 || results != 1 {
		t.Errorf("got %d pass events and %d result events, want >=1 and 1", passes, results)
	}
}

// TestNoGoroutineLeak runs successful, failing and timed-out requests and
// checks the server returns to its idle goroutine count: cancelled work
// must not strand engine workers or slot waiters.
func TestNoGoroutineLeak(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	// Drain and close every body immediately so the HTTP connection pool
	// stays at one reused connection and does not confound the count.
	post := func(req OptimizeRequest) {
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/v1/optimize", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var sink bytes.Buffer
		sink.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	warm := func() {
		post(OptimizeRequest{Netlist: fullAdderBench, ScriptSpec: ScriptSpec{Script: "quick"}})
	}
	warm() // let the HTTP client/server pools reach steady state
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		warm()
		post(OptimizeRequest{Netlist: suiteBench(t, "Sine"), TimeoutMS: 1})
		post(OptimizeRequest{Netlist: "garbage"})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+3 { // idle HTTP keep-alive conns wobble a little
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after cancelled requests", base, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// optimizeWithWorkers posts netlist under the quick script, adding the
// legacy "workers" field unless workers is nil, and returns the
// optimised netlist after checking for 200.
func optimizeWithWorkers(t *testing.T, url, netlist string, workers any) string {
	t.Helper()
	body := map[string]any{"netlist": netlist, "script": "quick"}
	if workers != nil {
		body["workers"] = workers
	}
	resp := postJSON(t, url+"/v1/optimize", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workers %v: status = %d, want 200", workers, resp.StatusCode)
	}
	return decodeBody[OptimizeResponse](t, resp).Netlist
}

// TestDeterministicAcrossWorkers: "workers" once asked for intra-graph
// parallelism. Old clients still send it, so it is accepted and ignored:
// absent, 1 and 8 return byte-identical netlists.
func TestDeterministicAcrossWorkers(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	netlist := suiteBench(t, "Sine")
	want := optimizeWithWorkers(t, hs.URL, netlist, nil)
	for _, workers := range []int{1, 8} {
		if got := optimizeWithWorkers(t, hs.URL, netlist, workers); got != want {
			t.Errorf("workers %d: netlist differs from the request without it", workers)
		}
	}
}

// TestNegativeWorkersNormalized: a negative "workers" is no error either;
// it is ignored like any other value and the result matches the request
// without the field.
func TestNegativeWorkersNormalized(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	want := optimizeWithWorkers(t, hs.URL, fullAdderBench, nil)
	if got := optimizeWithWorkers(t, hs.URL, fullAdderBench, -8); got != want {
		t.Error("workers -8: netlist differs from the request without it")
	}
}

// TestStreamErrorsCounted: in-stream error events bypass writeError, so
// they must bump migserve_error_responses_total themselves — before the
// fix a streaming batch abort left the counter untouched.
func TestStreamErrorsCounted(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	before := s.metrics.errors.Load()
	raw, _ := json.Marshal(OptimizeRequest{
		Name:       "doomed",
		Netlist:    suiteBench(t, "Sine"),
		ScriptSpec: ScriptSpec{Script: "resyn"},
		TimeoutMS:  5, // far too little for resyn on Sine
		Stream:     true,
	})
	resp, err := http.Post(hs.URL+"/v1/optimize", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		// The deadline beat slot acquisition: that path is writeError and
		// was always counted; retry won't make the stream deterministic,
		// so just verify the counter moved.
		if s.metrics.errors.Load() == before {
			t.Fatal("pre-stream error response not counted")
		}
		return
	}
	var errEvents int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if ev.Event == "error" {
			errEvents++
		}
	}
	if errEvents == 0 {
		t.Fatal("expected in-stream error events from the 5 ms deadline")
	}
	// The counter tracks error responses, so a stream with any number of
	// error events counts exactly once.
	if got := s.metrics.errors.Load() - before; got != 1 {
		t.Errorf("errors counter moved by %d for one erroring stream, want 1", got)
	}
}

// TestCachePersistenceAcrossRestart: a server with CacheFile snapshots
// its learned 5-input store on Close and a new server warm-starts from
// it, with bit-identical optimized netlists, no synthesis on the rerun
// and the persistence metrics exposed.
func TestCachePersistenceAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "npn.cache")
	cfg := Config{
		CacheFile:             path,
		CacheSnapshotInterval: -1, // shutdown-only snapshots
		Synth5:                db.OnDemandOptions{MaxGates: 5, MaxConflicts: 2000},
	}
	s1, hs1 := newTestServer(t, cfg)
	req := OptimizeRequest{
		Name:       "max",
		Netlist:    suiteBench(t, "Max"),
		ScriptSpec: ScriptSpec{Script: "TF5", MaxIterations: 1},
	}
	resp := postJSON(t, hs1.URL+"/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold optimize: status %d", resp.StatusCode)
	}
	cold := decodeBody[OptimizeResponse](t, resp)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Close left no snapshot: %v", err)
	}

	s2, hs2 := newTestServer(t, cfg)
	defer s2.Close()
	mresp, err := http.Get(hs2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	body := buf.String()
	if !strings.Contains(body, "migserve_cache_restored_entries") ||
		strings.Contains(body, "migserve_cache_restored_entries 0\n") {
		t.Errorf("restarted server reports no restored entries:\n%s", body)
	}

	resp = postJSON(t, hs2.URL+"/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm optimize: status %d", resp.StatusCode)
	}
	warm := decodeBody[OptimizeResponse](t, resp)
	if warm.Netlist != cold.Netlist {
		t.Error("warm-started server produced a different optimized netlist")
	}
	if n := s2.exact5.Synths(); n != 0 {
		t.Errorf("warm-started server ran %d synthesis ladders, want 0", n)
	}
}

// TestCorruptCacheFileStartsCold: a scribbled-over snapshot must not
// stop the server — it logs, starts cold, and still serves.
func TestCorruptCacheFileStartsCold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "npn.cache")
	if err := os.WriteFile(path, []byte("garbage, not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, hs := newTestServer(t, Config{CacheFile: path, CacheSnapshotInterval: -1})
	defer s.Close()
	resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{
		Netlist:    fullAdderBench,
		ScriptSpec: ScriptSpec{Script: "quick"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server with corrupt snapshot: status %d", resp.StatusCode)
	}
}

// TestPeriodicSnapshot: the background writer re-snapshots the cache
// without any shutdown, and Close is idempotent afterwards.
func TestPeriodicSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "npn.cache")
	s, hs := newTestServer(t, Config{CacheFile: path, CacheSnapshotInterval: 20 * time.Millisecond})
	postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{
		Netlist:    fullAdderBench,
		ScriptSpec: ScriptSpec{Script: "quick"},
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshot never appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
