package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/engine"
	"mighash/internal/server"
)

// TestRemoteVerifyModes: every -verify spelling verifyModes accepts goes
// through runRemote to an in-process server and succeeds, carried by
// verify_mode alone; a spelling it rejects never reaches a server.
func TestRemoteVerifyModes(t *testing.T) {
	srv, err := server.New(server.Config{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var (
		mu   sync.Mutex
		sent map[string]any // the JSON fields of the last request
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("reading the request: %v", err)
		}
		mu.Lock()
		sent = nil
		if err := json.Unmarshal(body, &sent); err != nil {
			t.Errorf("decoding the request: %v", err)
		}
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	spec, ok := circuits.ByName("Adder")
	if !ok {
		t.Fatal("suite circuit Adder missing")
	}
	jobs := []engine.Job{{Name: "Adder.out0", M: engine.ExtractCone(spec.Build(), 0)}}
	accepted := 0
	for _, mode := range []string{"", "sat", "sim", "sim+sat", "sat+sim", "SAT"} {
		if _, _, err := verifyModes(mode); err != nil {
			continue
		}
		accepted++
		results, _, err := runRemote(context.Background(), ts.URL, "quick", mode, 0, 0, jobs)
		if err != nil {
			t.Fatalf("-verify %q: %v", mode, err)
		}
		if len(results) != 1 || results[0].Err != nil {
			t.Fatalf("-verify %q: results %+v, want the one job back without error", mode, results)
		}
		mu.Lock()
		if _, ok := sent["verify"]; ok {
			t.Errorf("-verify %q: the request carries verify as well as verify_mode", mode)
		}
		if got, _ := sent["verify_mode"].(string); got != mode {
			t.Errorf("-verify %q: the request's verify_mode is %q", mode, got)
		}
		mu.Unlock()
	}
	if accepted != 4 {
		t.Errorf(`verifyModes accepts %d modes, want 4: "", "sat", "sim" and "sim+sat"`, accepted)
	}
}
