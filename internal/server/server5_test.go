package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"mighash/internal/db"
	"mighash/internal/engine"
)

// TestScriptsEndpointPinsPresetRegistry pins GET /v1/scripts to the
// engine's preset registry: the two lists must be equal — not merely
// overlapping — so a preset added to the engine (resyn5, size5, …)
// appears on the wire automatically and a dropped one disappears.
func TestScriptsEndpointPinsPresetRegistry(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/v1/scripts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := decodeBody[map[string][]ScriptInfo](t, resp)
	var got []string
	for _, s := range out["scripts"] {
		got = append(got, s.Name)
	}
	want := engine.PresetNames()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("GET /v1/scripts = %v, engine registry = %v", got, want)
	}
}

// TestUnknownScriptListsPresets: rejecting an unknown script must name
// the valid ones, so clients can self-correct without docs.
func TestUnknownScriptListsPresets(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{
		Netlist:    fullAdderBench,
		ScriptSpec: ScriptSpec{Script: "resin"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, name := range engine.PresetNames() {
		if !strings.Contains(string(body), name) {
			t.Fatalf("error body %q does not list preset %q", body, name)
		}
	}
}

// TestOptimize5EndToEnd: a resyn5 request round-trips, the learned-class
// metrics move, and the request deadline governs the in-flight ladders.
func TestOptimize5EndToEnd(t *testing.T) {
	s, hs := newTestServer(t, Config{
		Synth5: db.OnDemandOptions{MaxGates: 5, MaxConflicts: 2000},
	})
	resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{
		Netlist:    suiteBench(t, "Max"),
		ScriptSpec: ScriptSpec{Script: "resyn5", MaxIterations: 1},
		Verify:     true,
	})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	out := decodeBody[OptimizeResponse](t, resp)
	if out.Netlist == "" || out.Verified == nil || !*out.Verified {
		t.Fatalf("response lacks a verified netlist: %+v", out.Error)
	}
	if out.Stats.SizeAfter > out.Stats.SizeBefore {
		t.Fatalf("resyn5 grew the graph %d→%d", out.Stats.SizeBefore, out.Stats.SizeAfter)
	}
	if s.exact5.Synths() == 0 {
		t.Fatal("no 5-input ladders ran on a suite circuit")
	}

	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	// synth_timeouts keeps its name for dashboards; it counts the
	// ladders that blew the conflict or gate budget.
	for _, metric := range []string{
		"migserve_exact5_entries", "migserve_exact5_synth_total", "migserve_exact5_synth_timeouts",
	} {
		if !strings.Contains(string(body), metric) {
			t.Fatalf("/metrics lacks %s", metric)
		}
	}
}
