package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"mighash/internal/engine"
)

// FuzzOptimizeRequest drives the request front door up to the netlist
// parser, in the order run applies it: the body is decoded into a
// BatchRequest as the handlers decode it, then the verify mode and the
// pipeline are resolved. Nothing may panic; every failure must be one
// the handler answers with 400 and a non-empty error; and every pass of
// a resolved pipeline must resolve again by its name, the name the
// per-pass stats report.
func FuzzOptimizeRequest(f *testing.F) {
	for _, seed := range []string{
		// The README's request examples.
		`{"name": "fulladder", "netlist": "INPUT(a)\nINPUT(b)\nINPUT(cin)\nOUTPUT(s)\nOUTPUT(c)\nc = MAJ(a,b,cin)\ns = XOR(a,b,cin)\n", "script": "resyn", "timeout_ms": 5000, "verify": true}`,
		`{"netlist": "...", "script": "size", "stream": true}`,
		`{"jobs": [{"name": "a", "netlist": "..."}, {"name": "b", "netlist": "..."}], "passes": ["TF", "BF"], "workers": 4}`,
		`{"netlist": "...", "script": "resyn5", "timeout_ms": 30000}`,
		`{"netlist": "...", "format": "mig", "script": "resyn", "extract": true, "extract_objective": "depth", "verify_mode": "sim"}`,
		// The retired "workers" field is accepted and ignored.
		`{"netlist": "...", "script": "quick", "workers": 8}`,
		`{"netlist": "...", "script": "quick", "workers": -8}`,
		`{"netlist": "...", "extract_objective": "speed"}`,
		`{"netlist": "...", "passes": ["TF", "XX"]}`,
		`{"netlist": "...", "max_iterations": 9223372036854775807}`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/optimize/batch", bytes.NewReader(body))
		var req BatchRequest
		if !s.decode(w, r, &req) {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("decode answered %d, want 400", w.Code)
			}
			return
		}
		// run answers both errors below with 400 and err's text.
		p, err := s.pipeline(req.ScriptSpec)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("pipeline failed with an empty error")
			}
			return
		}
		if _, err := req.verifyMode(); err != nil {
			if err.Error() == "" {
				t.Fatal("verifyMode failed with an empty error")
			}
			return
		}
		for _, pass := range p.Passes {
			again, ok := engine.PassByName(pass.Name())
			if !ok || again.Name() != pass.Name() {
				t.Fatalf("pipeline pass %q does not resolve by its name", pass.Name())
			}
		}
	})
}
