package server

import (
	"io"
	"net/http"
	"slices"
	"testing"
)

// TestExtractFieldsResolveThroughGrammar pins the request's extract and
// extract_objective fields: each switches every top-down rewrite pass of
// the script to its choice-aware name in the pass grammar and leaves
// depthopt and BF alone, a junk objective is a client error, and the
// pass names a response reports are accepted back as a custom script.
func TestExtractFieldsResolveThroughGrammar(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	run := func(spec ScriptSpec) []string {
		t.Helper()
		spec.MaxIterations = 1
		resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{Netlist: fullAdderBench, ScriptSpec: spec})
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%+v: status %d: %s", spec, resp.StatusCode, body)
		}
		var names []string
		for _, ps := range decodeBody[OptimizeResponse](t, resp).Stats.Passes {
			names = append(names, ps.Name)
		}
		return names
	}
	for _, tc := range []struct {
		spec ScriptSpec
		want []string
	}{
		{ScriptSpec{Script: "resyn", Extract: true}, []string{"TFx", "depthopt", "BF", "TFDx"}},
		{ScriptSpec{Script: "resyn", ExtractObjective: "depth"}, []string{"TFxd", "depthopt", "BF", "TFDxd"}},
		{ScriptSpec{Script: "depth", Extract: true}, []string{"depthopt", "TDx"}},
		{ScriptSpec{Script: "size", Extract: true}, []string{"BF"}},
		{ScriptSpec{Script: "depth-x", Extract: true}, []string{"depthopt", "Txd", "TDx"}},
		{ScriptSpec{Passes: []string{"TF5", "BF"}, Extract: true, ExtractObjective: "size"}, []string{"TF5x", "BF"}},
	} {
		got := run(tc.spec)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%+v runs %v, want %v", tc.spec, got, tc.want)
		}
		// The reported names are pass names: feeding them back runs the
		// same passes without the extract fields.
		if again := run(ScriptSpec{Passes: got}); !slices.Equal(again, got) {
			t.Errorf("passes %v ran as %v", got, again)
		}
	}

	resp := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{
		Netlist:    fullAdderBench,
		ScriptSpec: ScriptSpec{Script: "resyn", Extract: true, ExtractObjective: "area"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk extract_objective: status %d, want 400", resp.StatusCode)
	}
}
