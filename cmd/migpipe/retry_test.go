package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mighash/internal/engine"
	"mighash/internal/mig"
	"mighash/internal/server"
)

// fastPolicy keeps test backoffs in the single-millisecond range.
var fastPolicy = retryPolicy{MaxRetries: 4, Base: time.Millisecond, Cap: 4 * time.Millisecond}

// TestPostRetriesUntilSuccess: two 503s (with Retry-After, as migserve
// always sends) and then a 200 cost exactly three attempts, and the
// final body is the success payload.
func TestPostRetriesUntilSuccess(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok")
	}))
	defer ts.Close()

	resp, attempts, err := fastPolicy.post(context.Background(), ts.Client(), ts.URL, "text/plain", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two 503s + success)", attempts)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final status = %d, want 200", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "ok" {
		t.Fatalf("final body = %q, want %q", body, "ok")
	}
}

// TestPostReturnsLastResponseWhenExhausted: a persistently unavailable
// server costs MaxRetries+1 attempts and hands back the last 503 so the
// caller can surface the server's own error body.
func TestPostReturnsLastResponseWhenExhausted(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	p := retryPolicy{MaxRetries: 2, Base: time.Millisecond, Cap: time.Millisecond}
	resp, attempts, err := p.post(context.Background(), ts.Client(), ts.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if attempts != 3 || hits.Load() != 3 {
		t.Fatalf("attempts = %d, server hits = %d, want 3 and 3", attempts, hits.Load())
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("exhausted retries returned %d, want the last 503", resp.StatusCode)
	}
}

// TestPostNeverRetriesClientErrors: a 4xx is the request's own fault —
// replaying it is pure waste, so one attempt is all it gets.
func TestPostNeverRetriesClientErrors(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "bad netlist", http.StatusBadRequest)
	}))
	defer ts.Close()

	resp, attempts, err := fastPolicy.post(context.Background(), ts.Client(), ts.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if attempts != 1 || hits.Load() != 1 {
		t.Fatalf("attempts = %d, server hits = %d, want 1 and 1", attempts, hits.Load())
	}
}

// TestPostRetriesConnectErrors: a server that is not there at all is the
// canonical idempotent failure — the request never reached a handler.
func TestPostRetriesConnectErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close() // the port is now refusing connections

	p := retryPolicy{MaxRetries: 2, Base: time.Millisecond, Cap: time.Millisecond}
	_, attempts, err := p.post(context.Background(), http.DefaultClient, url, "text/plain", nil)
	if err == nil {
		t.Fatal("post to a closed port succeeded")
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (initial + 2 retries)", attempts)
	}
}

// TestPostStopsOnContextCancel: cancellation mid-backoff wins over the
// remaining retry budget.
func TestPostStopsOnContextCancel(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	p := retryPolicy{MaxRetries: 100, Base: 10 * time.Second, Cap: 10 * time.Second}
	start := time.Now()
	_, _, err := p.post(ctx, ts.Client(), ts.URL, "text/plain", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — the backoff sleep ignored the context", elapsed)
	}
}

// TestBackoffShape: the sleep stays inside the exponential envelope,
// caps out, and never undercuts the server's Retry-After floor.
func TestBackoffShape(t *testing.T) {
	p := retryPolicy{MaxRetries: 4, Base: 100 * time.Millisecond, Cap: 400 * time.Millisecond}
	for attempt := 0; attempt < 6; attempt++ {
		bound := p.Base << attempt
		if bound > p.Cap {
			bound = p.Cap
		}
		for i := 0; i < 50; i++ {
			if d := p.backoff(attempt, 0); d < 0 || d > bound {
				t.Fatalf("backoff(%d) = %v, want within [0, %v]", attempt, d, bound)
			}
		}
	}
	if d := p.backoff(0, 5*time.Second); d < 5*time.Second {
		t.Fatalf("backoff with a 5s Retry-After floor slept only %v", d)
	}
	if got := parseRetryAfter("7"); got != 7*time.Second {
		t.Fatalf("parseRetryAfter(7) = %v", got)
	}
	for _, bad := range []string{"", "nope", "-3", "Wed, 21 Oct 2015 07:28:00 GMT"} {
		if got := parseRetryAfter(bad); got != 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, want 0", bad, got)
		}
	}
}

// TestRunRemoteReportsAttempts: the full remote path — one shed 503 with
// Retry-After, then a real batch response — reports attempts = 2 and
// still maps the server's results.
func TestRunRemoteReportsAttempts(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"server overloaded"}`, http.StatusServiceUnavailable)
			return
		}
		var req server.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decoding forwarded batch request: %v", err)
		}
		br := server.BatchResponse{Script: req.Script}
		for _, j := range req.Jobs {
			br.Results = append(br.Results, server.OptimizeResponse{Name: j.Name})
		}
		json.NewEncoder(w).Encode(br)
	}))
	defer ts.Close()

	m, err := mig.ReadBENCH(strings.NewReader("INPUT(a)\nINPUT(b)\nOUTPUT(c)\nc = AND(a, b)\n"))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []engine.Job{{Name: "tiny", M: m}}
	results, attempts, err := runRemote(context.Background(), ts.URL, "resyn", "", 0, 4, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one shed 503 + success)", attempts)
	}
	if len(results) != 1 || results[0].Name != "tiny" {
		t.Fatalf("results = %+v, want the one job back", results)
	}
}
