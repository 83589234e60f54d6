package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"mighash/internal/db"
	"mighash/internal/engine"
	"mighash/internal/extract"
	"mighash/internal/fault"
	"mighash/internal/mig"
	"mighash/internal/obs"
	"mighash/internal/rewrite"
	"mighash/internal/sim/diff"
)

// Config tunes a Server. The zero value is usable: every limit falls back
// to the default documented on its field.
type Config struct {
	// MaxBodyBytes caps the request body; larger bodies are rejected with
	// 413 before parsing. Default 16 MiB.
	MaxBodyBytes int64
	// MaxGates rejects parsed netlists above this gate count with 413
	// (the cheap byte cap cannot see how a netlist expands — XOR-heavy
	// BENCH files grow 3× when lowered to majority gadgets). Default
	// 2,000,000; negative disables the check.
	MaxGates int
	// DefaultTimeout bounds a request that does not ask for a deadline of
	// its own. Default 60s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines; requests asking for
	// more are clamped, not rejected. Default 5m.
	MaxTimeout time.Duration
	// MaxConcurrent bounds the number of optimization jobs running at
	// once across all requests (the service-level worker pool; parsing
	// and encoding are not limited). Every job runs on one goroutine, so
	// a slot is one CPU. Requests queue for a slot until their deadline.
	// Default runtime.NumCPU().
	MaxConcurrent int
	// CacheFile persists the learned 5-input store across process
	// restarts: New restores the snapshot at this path (a missing file is
	// a cold start; a corrupt or version-skewed one degrades to a cold
	// store with a logged error), a background goroutine re-snapshots it
	// every CacheSnapshotInterval, and Close writes a final snapshot
	// during graceful shutdown. Optimized netlists are bit-identical warm
	// or cold — a warm store only skips already-learned synthesis.
	CacheFile string
	// CacheSnapshotInterval is the period of the background snapshot
	// writer when CacheFile is set. Default 5m; negative disables the
	// periodic writer (Close still snapshots).
	CacheSnapshotInterval time.Duration
	// Synth5 tunes the per-class budget of the on-demand 5-input
	// exact-synthesis store behind the K = 5 scripts (resyn5, size5,
	// TF5, …). The store is shared by every request of the server's
	// lifetime — classes are learned once — and, with CacheFile, persists
	// across restarts. In-flight ladders are cancelled when their
	// request's deadline fires. The zero value uses the db package
	// defaults (conflict-bounded, deterministic).
	Synth5 db.OnDemandOptions
	// DB supplies the minimum-MIG database; nil loads the embedded one.
	DB *db.DB
	// TraceDir, when set, writes one Chrome trace-event JSON file per
	// optimization request into this directory, named <request-id>.json
	// (the ID echoed in the X-Request-ID header), loadable in
	// chrome://tracing and Perfetto. Off by default; the per-span latency
	// histograms in /metrics are on either way.
	TraceDir string
	// SlowRequest logs one structured line (request ID, path, status,
	// elapsed) for every optimization request slower than this threshold.
	// Zero disables the slow log.
	SlowRequest time.Duration
	// Logger receives the server's structured log records (snapshot
	// lifecycle, slow requests, handler panics), every operational record
	// keyed by request_id where one exists. Nil means slog.Default() —
	// tests inject a handler here to assert on records.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.MaxGates == 0 {
		c.MaxGates = 2_000_000
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.NumCPU()
	}
	if c.CacheFile != "" && c.CacheSnapshotInterval == 0 {
		c.CacheSnapshotInterval = 5 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the HTTP optimization service. Create one with New and mount
// it with Handler (it is itself an http.Handler). A Server is safe for
// concurrent use; all mutable state is the metrics counters, the
// concurrency semaphore, and the shared 5-input store — each
// concurrency-safe on its own.
type Server struct {
	cfg     Config
	db      *db.DB
	exact5  *db.OnDemand // always non-nil; shared by every request
	slots   chan struct{}
	mux     *http.ServeMux
	log     *slog.Logger
	metrics metrics

	// Snapshot lifecycle (nil/zero without Config.CacheFile).
	snapStop  chan struct{}
	snapDone  chan struct{}
	closeOnce sync.Once
}

// New builds a Server, loading the embedded minimum-MIG database unless
// cfg.DB overrides it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	d := cfg.DB
	if d == nil {
		var err error
		if d, err = db.Load(); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:    cfg,
		db:     d,
		exact5: db.NewOnDemand(cfg.Synth5),
		slots:  make(chan struct{}, cfg.MaxConcurrent),
		log:    cfg.Logger,
	}
	if cfg.CacheFile != "" {
		n, err := db.LoadSnapshotFile(cfg.CacheFile, s.exact5)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			s.log.Info("no snapshot, starting cold", "path", cfg.CacheFile)
		case err != nil:
			s.log.Warn("restoring snapshot failed, starting cold", "path", cfg.CacheFile, "err", err)
		default:
			s.metrics.cacheRestored.Store(int64(n))
			s.log.Info("warm-started 5-input store from snapshot", "path", cfg.CacheFile, "entries", n)
		}
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop()
	}
	s.metrics.start = time.Now()
	s.metrics.reqHist = obs.NewHistogram()
	s.metrics.passHist = obs.NewHistogram()
	s.metrics.ladderHist = obs.NewHistogram()
	s.metrics.slotWait = obs.NewHistogram()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("POST /v1/optimize/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/scripts", s.handleScripts)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s }

// snapshotLoop re-snapshots the 5-input store every
// CacheSnapshotInterval until Close. Snapshot failures are logged and
// counted, never fatal — the store keeps serving and the next tick
// retries.
func (s *Server) snapshotLoop() {
	defer close(s.snapDone)
	if s.cfg.CacheSnapshotInterval < 0 {
		<-s.snapStop
		return
	}
	t := time.NewTicker(s.cfg.CacheSnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.snapshotCache()
		case <-s.snapStop:
			return
		}
	}
}

// snapshotCache writes one snapshot and updates the snapshot metrics.
// Failures degrade, never escalate: the in-memory store keeps serving
// and the next tick retries. The consecutive-errors gauge is the alert
// signal separating a transient blip (spikes to 1, back to 0) from a
// persistently broken snapshot path (climbs monotonically — a restarted
// process would start cold).
func (s *Server) snapshotCache() error {
	s.metrics.snapshots.Add(1)
	n, err := db.SaveSnapshotFile(s.cfg.CacheFile, s.exact5)
	if err != nil {
		s.metrics.snapshotErrors.Add(1)
		s.metrics.snapshotConsecErr.Add(1)
		s.log.Error("snapshot failed", "path", s.cfg.CacheFile, "err", err,
			"consecutive_errors", s.metrics.snapshotConsecErr.Load())
		return err
	}
	s.metrics.snapshotConsecErr.Store(0)
	s.metrics.snapshotEntries.Store(int64(n))
	return nil
}

// Close releases the server's background resources: it stops the
// periodic snapshot writer and, when Config.CacheFile is set, drains the
// 5-input store to disk one final time so a restarted process
// warm-starts from every learned class (cmd/migserve calls this after
// the HTTP drain on
// SIGTERM). It returns the final snapshot's error, if any — a full disk
// at shutdown must not masquerade as a clean close. Close is idempotent
// and safe to call on a server without a snapshot file, where it is a
// no-op.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		if s.snapStop == nil {
			return
		}
		close(s.snapStop)
		<-s.snapDone
		err = s.snapshotCache()
	})
	return err
}

// ServeHTTP dispatches to the /v1 API, /healthz and /metrics. Every
// request gets a generated ID (echoed in X-Request-ID) and a tracer with
// a "request" root span; optimization requests additionally feed the
// request-duration histogram, the optional per-request trace file, and
// the optional slow-request log. The tracer retains spans only when
// TraceDir asks for a file — the histogram path drops each span as it
// ends, so tracing-off requests accumulate no per-span state.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	id := obs.NewRequestID()
	w.Header().Set("X-Request-ID", id)
	tr := obs.New(obs.Options{Retain: s.cfg.TraceDir != "", OnEnd: s.observeSpan})
	ctx := obs.ContextWithTracer(r.Context(), tr)
	ctx, span := obs.Start(ctx, "request")
	span.SetStr("id", id)
	span.SetStr("path", r.URL.Path)
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	s.dispatch(rec, r.WithContext(ctx), id)
	elapsed := time.Since(start)
	span.SetInt("status", int64(rec.status))
	span.End()
	if !isOptimizePath(r) {
		return
	}
	s.metrics.reqHist.Observe(elapsed)
	if dir := s.cfg.TraceDir; dir != "" {
		if err := tr.SaveTrace(filepath.Join(dir, id+".json")); err != nil {
			s.log.Error("writing trace file failed", "request_id", id, "err", err)
		}
	}
	if thr := s.cfg.SlowRequest; thr > 0 && elapsed >= thr {
		s.log.Warn("slow_request",
			"request_id", id,
			"path", r.URL.Path,
			"status", rec.status,
			"elapsed_ms", elapsed.Milliseconds(),
			"threshold_ms", thr.Milliseconds(),
		)
	}
}

// dispatch runs the mux with the process's last panic boundary under it:
// a handler panic — a bug the engine's per-job recovery did not own, or
// injected chaos — is counted, logged with the request ID and a stack,
// and answered with a 500 naming that ID, instead of tearing down the
// listener's goroutine (and with http.Server's default recovery, silently
// dropping the connection). The recovery lands before ServeHTTP's
// post-processing, so the request still feeds the duration histogram,
// trace file and slow log like any other error response.
func (s *Server) dispatch(rec *statusRecorder, r *http.Request, id string) {
	defer func() {
		rv := recover()
		if rv == nil {
			return
		}
		s.metrics.handlerPanics.Add(1)
		stack := debug.Stack()
		if len(stack) > 8<<10 {
			stack = stack[:8<<10]
		}
		s.log.Error("panic in handler",
			"request_id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"panic", fmt.Sprint(rv),
			"stack", string(stack),
		)
		if !rec.wrote {
			s.writeError(rec, http.StatusInternalServerError,
				"internal error; the failure is logged under request id %s", id)
			return
		}
		// The response was already underway (headers gone, possibly
		// mid-stream); nothing coherent can be written, but the abort must
		// not escape the error counter just because the status said 200.
		if rec.status < 400 {
			s.metrics.errors.Add(1)
		}
	}()
	// Failpoint "server/handler": a panic spec here exercises the boundary
	// above exactly as a real handler bug would.
	if err := fault.Hit("server/handler"); err != nil {
		panic(err)
	}
	s.mux.ServeHTTP(rec, r)
}

// isOptimizePath reports whether the request does optimization work —
// the only requests worth a duration histogram sample or a trace file
// (healthz/metrics scrapes would drown the latency signal).
func isOptimizePath(r *http.Request) bool {
	return r.Method == http.MethodPost &&
		(r.URL.Path == "/v1/optimize" || r.URL.Path == "/v1/optimize/batch")
}

// observeSpan routes finished spans into the duration histograms; it is
// the tracer's OnEnd hook, called from whatever goroutine ends the span.
func (s *Server) observeSpan(sp *obs.Span) {
	switch sp.Name() {
	case "pass":
		s.metrics.passHist.Observe(sp.Duration())
	case "exact5.ladder":
		s.metrics.ladderHist.Observe(sp.Duration())
	}
}

// statusRecorder captures the response status for the request span and
// the slow log, and whether anything was written at all — the panic
// boundary can only substitute a 500 while the response is untouched.
// Flush must pass through — the streaming endpoints flush after every
// NDJSON line.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// OptimizeRequest is the body of POST /v1/optimize and, embedded per job,
// of the batch endpoint. Netlist is required; everything else defaults.
type OptimizeRequest struct {
	// Name labels the job in responses and stream events.
	Name string `json:"name,omitempty"`
	// Netlist is the circuit, in the format named by Format.
	Netlist string `json:"netlist"`
	// Format is "bench" (default; the ISCAS BENCH dialect of
	// mig.ReadBENCH, extended with MAJ) or "mig" (mig.WriteText's native
	// netlist format). The response netlist uses the same format.
	Format string `json:"format,omitempty"`
	ScriptSpec
	// TimeoutMS bounds this request's optimization work in wall-clock
	// milliseconds; it is clamped to the server's MaxTimeout. Zero asks
	// for the server's DefaultTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Verify re-checks input/output equivalence before responding, in the
	// mode named by VerifyMode (default "sim+sat"). Costly on large
	// circuits; the check runs under the request's remaining deadline and
	// fails the job when the budget runs out.
	Verify bool `json:"verify,omitempty"`
	// VerifyMode picks the verification-ladder rung (implies Verify):
	// "sat" proves equivalence with a pure SAT miter, "sim" re-simulates
	// every executed pass and the final result word-parallel (refute-only:
	// a clean run sets SimClean, never Verified), and "sim+sat" — the
	// default when only Verify is set — runs the simulation prefilter and
	// harness first and proves sim-clean results with SAT.
	VerifyMode string `json:"verify_mode,omitempty"`
	// Stream switches the response to application/x-ndjson: one "pass"
	// event per executed pass as it happens, then one "result" event.
	Stream bool `json:"stream,omitempty"`
}

// ScriptSpec selects the optimization pipeline of a request.
type ScriptSpec struct {
	// Script names a preset ("resyn", "size", "depth", "quick", …, or any
	// single pass name; GET /v1/scripts lists them). Default "resyn".
	// Ignored when Passes is set.
	Script string `json:"script,omitempty"`
	// Passes builds a custom script from pass names, run in order to
	// convergence: "depthopt" or any name of the pass grammar ("TF",
	// "BF", "TFD5", "TFx", "TDxd", …; see engine.PassByName). Every name
	// a response reports in its per-pass stats is accepted here.
	Passes []string `json:"passes,omitempty"`
	// MaxIterations caps the script rounds (default: the engine's 10).
	MaxIterations int `json:"max_iterations,omitempty"`
	// Extract switches every top-down rewrite pass of the script to its
	// choice-aware form in the pass grammar ("TF" → "TFx", "TFD5" →
	// "TFD5x"): candidate menus per cut, one globally selected cover,
	// never worse than the greedy pass it replaces. depthopt and BF run
	// unchanged. This is not the same script as an "-x" preset: "resyn"
	// with Extract runs TFx, depthopt, BF, TFDx, while "resyn-x" runs
	// TFx, depthopt, BF, TFD, TF5x.
	Extract bool `json:"extract,omitempty"`
	// ExtractObjective selects the extraction objective and implies
	// Extract: "size" (default) or "depth", which names the passes with
	// "xd" ("TF" → "TFxd").
	ExtractObjective string `json:"extract_objective,omitempty"`
}

// BatchRequest is the body of POST /v1/optimize/batch: many netlists
// optimized one after another under one script and one shared deadline.
type BatchRequest struct {
	Jobs []BatchJobRequest `json:"jobs"`
	ScriptSpec
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	Verify    bool  `json:"verify,omitempty"`
	// VerifyMode is the verification-ladder rung; see OptimizeRequest.
	VerifyMode string `json:"verify_mode,omitempty"`
	Stream     bool   `json:"stream,omitempty"`
}

// verifyMode resolves the request's verification mode: VerifyMode wins,
// a bare Verify=true means the full "sim+sat" ladder, and anything
// unrecognized is a client error.
func (r *BatchRequest) verifyMode() (string, error) {
	switch r.VerifyMode {
	case "":
		if r.Verify {
			return "sim+sat", nil
		}
		return "", nil
	case "sat", "sim", "sim+sat":
		return r.VerifyMode, nil
	}
	return "", fmt.Errorf(`unknown verify_mode %q (want "sat", "sim" or "sim+sat")`, r.VerifyMode)
}

// BatchJobRequest is one netlist of a batch request.
type BatchJobRequest struct {
	Name    string `json:"name,omitempty"`
	Netlist string `json:"netlist"`
	Format  string `json:"format,omitempty"`
}

// OptimizeResponse is the result of one optimization job: the optimized
// netlist (same format as the input) and the full per-pass statistics.
type OptimizeResponse struct {
	Name    string               `json:"name,omitempty"`
	Netlist string               `json:"netlist,omitempty"`
	Stats   engine.PipelineStats `json:"stats"`
	// Verified reports a SAT-proven equivalence check; only present when
	// the request asked for verification and the result was proven
	// (verify_mode "sat" or "sim+sat").
	Verified *bool `json:"verified,omitempty"`
	// SimClean reports a refute-only simulation check that found no
	// difference (verify_mode "sim"): evidence, not proof — the SAT rung
	// never ran, so Verified stays absent.
	SimClean *bool `json:"sim_clean,omitempty"`
	// Error is the per-job failure. Jobs fail independently once
	// optimization starts (an engine error on one job leaves the others'
	// results intact); request validation is fail-fast instead — any
	// unparsable or oversized netlist rejects the whole batch with a
	// 4xx before optimization begins.
	Error string `json:"error,omitempty"`
}

// BatchResponse is the body of a non-streaming batch response. Results
// are in job order regardless of scheduling.
type BatchResponse struct {
	Script    string             `json:"script"`
	Results   []OptimizeResponse `json:"results"`
	ElapsedNS time.Duration      `json:"elapsed_ns"`
}

// StreamEvent is one line of an application/x-ndjson streaming response.
// Event is "pass" (Job + Pass set), "result" (Job + Result set), or
// "error" (Error set; the stream ends after it).
type StreamEvent struct {
	Event  string            `json:"event"`
	Job    string            `json:"job,omitempty"`
	Pass   *engine.PassStats `json:"pass,omitempty"`
	Result *OptimizeResponse `json:"result,omitempty"`
	Error  string            `json:"error,omitempty"`
}

// ScriptInfo describes one preset script for GET /v1/scripts.
type ScriptInfo struct {
	Name   string   `json:"name"`
	Passes []string `json:"passes"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.metrics.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decode reads the JSON request body under the server's byte cap,
// translating the cap violation to 413 and malformed JSON to 400. It
// reports whether decoding succeeded; on failure the response is written.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	if err := dec.Decode(into); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", tooLarge.Limit)
			return false
		}
		s.writeError(w, http.StatusBadRequest, "malformed JSON request: %v", err)
		return false
	}
	return true
}

// parseNetlist parses one job's netlist and enforces the gate cap.
func (s *Server) parseNetlist(netlist, format string) (*mig.MIG, error) {
	if strings.TrimSpace(netlist) == "" {
		return nil, fmt.Errorf("empty netlist")
	}
	var (
		m   *mig.MIG
		err error
	)
	switch format {
	case "", "bench":
		m, err = mig.ReadBENCH(strings.NewReader(netlist))
	case "mig":
		m, err = mig.ReadText(strings.NewReader(netlist))
	default:
		return nil, fmt.Errorf("unknown netlist format %q (want \"bench\" or \"mig\")", format)
	}
	if err != nil {
		return nil, err
	}
	if s.cfg.MaxGates >= 0 && m.NumGates() > s.cfg.MaxGates {
		return nil, errTooLarge{gates: m.NumGates(), limit: s.cfg.MaxGates}
	}
	return m, nil
}

// errTooLarge marks a parsed-netlist size violation so the handler can
// map it to 413 instead of 400.
type errTooLarge struct{ gates, limit int }

func (e errTooLarge) Error() string {
	return fmt.Sprintf("netlist has %d gates, exceeding the %d-gate limit", e.gates, e.limit)
}

// writeNetlist renders m in the request's format.
func writeNetlist(m *mig.MIG, format string) (string, error) {
	var b strings.Builder
	var err error
	switch format {
	case "", "bench":
		err = m.WriteBENCH(&b)
	case "mig":
		err = m.WriteText(&b)
	default:
		err = fmt.Errorf("unknown netlist format %q", format)
	}
	return b.String(), err
}

// pipeline resolves the request's script over the server's database and
// shared 5-input store.
func (s *Server) pipeline(spec ScriptSpec) (*engine.Pipeline, error) {
	var (
		p   *engine.Pipeline
		err error
	)
	if len(spec.Passes) > 0 {
		p, err = engine.NewScript("custom", spec.Passes...)
	} else {
		script := spec.Script
		if script == "" {
			script = "resyn"
		}
		p, err = engine.Preset(script)
	}
	if err != nil {
		return nil, err
	}
	p.DB = s.db
	p.Exact5 = s.exact5 // always shared: 5-input classes are learned once
	if spec.MaxIterations > 0 {
		// Only override when the client asked: presets like "quick" bake
		// in their own iteration caps, and zero must not erase them.
		p.MaxIterations = spec.MaxIterations
	}
	depth := false
	switch spec.ExtractObjective {
	case "", "size":
	case "depth":
		depth = true
	default:
		return nil, fmt.Errorf(`unknown extract_objective %q (want "size" or "depth")`, spec.ExtractObjective)
	}
	if spec.Extract || spec.ExtractObjective != "" {
		// Re-resolve each top-down rewrite pass through the grammar as
		// its choice-aware form; depthopt and BF have none. The depth
		// objective is imposed, the size objective never overrides a
		// pass already extracting under depth ("Txd" stays "Txd").
		for i, pass := range p.Passes {
			opt, ok := rewrite.ParseVariant(pass.Name())
			if !ok || opt.BottomUp {
				continue
			}
			opt.Extract = true
			if depth {
				opt.ExtractObjective = extract.Depth
			}
			p.Passes[i] = engine.RewritePass(opt)
		}
	}
	return p, nil
}

// deadline derives the request context: the client's timeout_ms clamped
// to MaxTimeout, or DefaultTimeout when unset.
func (s *Server) deadline(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(ctx, d)
}

// acquire claims a slot of the service-level pool, or fails when the
// request's deadline expires first.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.slots }

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.metrics.optimize.Add(1)
	var req OptimizeRequest
	if !s.decode(w, r, &req) {
		return
	}
	br := BatchRequest{
		Jobs:       []BatchJobRequest{{Name: req.Name, Netlist: req.Netlist, Format: req.Format}},
		ScriptSpec: req.ScriptSpec,
		TimeoutMS:  req.TimeoutMS,
		Verify:     req.Verify,
		VerifyMode: req.VerifyMode,
		Stream:     req.Stream,
	}
	s.run(w, r, br, false)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.batch.Add(1)
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		s.writeError(w, http.StatusBadRequest, "batch request has no jobs")
		return
	}
	s.run(w, r, req, true)
}

// run executes a validated request. Both endpoints share it: a single
// optimize is a batch of one whose response is unwrapped (batch=false).
func (s *Server) run(w http.ResponseWriter, r *http.Request, req BatchRequest, batch bool) {
	rctx := r.Context()
	_, parseSpan := obs.Start(rctx, "parse")
	defer parseSpan.End()
	p, err := s.pipeline(req.ScriptSpec)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	vmode, err := req.verifyMode()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if vmode == "sim" || vmode == "sim+sat" {
		// The differential harness re-checks every executed pass against
		// its input graph; an offending pass fails its job with the pass
		// name and counterexample in-band.
		p.PassCheck = diff.New(diff.Options{}).PassCheck
	}
	jobs := make([]engine.Job, len(req.Jobs))
	for i, j := range req.Jobs {
		m, err := s.parseNetlist(j.Netlist, j.Format)
		if err != nil {
			status := http.StatusBadRequest
			var tooLarge errTooLarge
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			s.writeError(w, status, "job %d (%s): %v", i, jobName(j, i, batch), err)
			return
		}
		jobs[i] = engine.Job{Name: jobName(j, i, batch), M: m}
	}
	parseSpan.SetInt("jobs", int64(len(jobs)))
	parseSpan.End()

	ctx, cancel := s.deadline(rctx, req.TimeoutMS)
	defer cancel()
	if s.shouldShed(ctx) {
		s.metrics.shed.Add(1)
		s.writeUnavailable(w, "server overloaded: the queue ahead of this request exceeds its deadline")
		return
	}
	_, waitSpan := obs.Start(ctx, "queue-wait")
	s.metrics.queueDepth.Add(1)
	waitStart := time.Now()
	err = s.acquire(ctx)
	s.metrics.queueDepth.Add(-1)
	s.metrics.slotWait.Observe(time.Since(waitStart))
	waitSpan.End()
	if err != nil {
		s.writeUnavailable(w, fmt.Sprintf(
			"no optimization slot became free before the request deadline: %v", err))
		return
	}
	defer s.release()
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	var stream *streamWriter
	opt := engine.BatchOptions{
		// A request holds one slot, so its jobs run one after another:
		// the slot pool then bounds the CPUs in use across requests.
		Workers: 1,
	}
	if req.Stream {
		stream = newStreamWriter(w)
		opt.Progress = func(job int, ps engine.PassStats) {
			stream.send(StreamEvent{Event: "pass", Job: jobs[job].Name, Pass: &ps})
		}
	}
	start := time.Now()
	octx, optSpan := obs.Start(ctx, "optimize")
	results, runErr := engine.RunBatch(octx, p, jobs, opt)
	optSpan.End()
	elapsed := time.Since(start)

	// The encode phase covers netlist rendering, the optional equivalence
	// check (its own "verify" child spans), and response serialization.
	ectx, encSpan := obs.Start(ctx, "encode")
	defer encSpan.End()
	resps := make([]OptimizeResponse, len(results))
	for i, res := range results {
		resps[i] = s.buildResponse(ectx, req, i, jobs[i].M, res)
	}
	s.metrics.observe(p.Name, results)

	if runErr != nil && !req.Stream {
		// The whole batch hit the deadline (or the client went away).
		// Individual per-job errors are reported in-band; a batch-level
		// context error means no complete result set exists.
		status := http.StatusGatewayTimeout
		if errors.Is(runErr, context.Canceled) {
			status = 499 // client closed request (nginx convention)
		}
		s.writeError(w, status, "optimization aborted: %v", runErr)
		return
	}

	switch {
	case req.Stream:
		// In-stream error events bypass writeError (the 200 header is long
		// gone), so an erroring stream must feed the error counter itself
		// or streaming aborts become invisible to monitoring. The counter
		// tracks error *responses*, so a stream carrying any number of
		// error events counts once — same as its non-streaming twin.
		streamErrored := false
		for i := range resps {
			resp := &resps[i]
			if resp.Error != "" {
				streamErrored = true
				stream.send(StreamEvent{Event: "error", Job: resp.Name, Error: resp.Error})
				continue
			}
			stream.send(StreamEvent{Event: "result", Job: resp.Name, Result: resp})
		}
		if runErr != nil {
			streamErrored = true
			stream.send(StreamEvent{Event: "error", Error: runErr.Error()})
		}
		if streamErrored {
			s.metrics.errors.Add(1)
		} else {
			// A stream that ran to completion is a success response even
			// though it never passes through writeJSON: count it so the
			// responses/errors pair partitions every outcome.
			s.metrics.responses.Add(1)
		}
	case batch:
		s.writeJSON(w, http.StatusOK, BatchResponse{Script: p.Name, Results: resps, ElapsedNS: elapsed})
	default:
		resp := resps[0]
		if resp.Error != "" {
			status := http.StatusInternalServerError
			if errors.Is(results[0].Err, context.DeadlineExceeded) {
				status = http.StatusGatewayTimeout
			}
			s.writeError(w, status, "%s", resp.Error)
			return
		}
		s.writeJSON(w, http.StatusOK, resp)
	}
}

// shedMinSamples is how many completed requests the duration histogram
// must hold before the shed predictor trusts its median: below it, a few
// unlucky early samples could wrongly shed a healthy server.
const shedMinSamples = 8

// shouldShed is the admission-control watermark, evaluated before the
// request joins the slot queue: when the work already queued ahead of it
// (queue depth × the median request duration) cannot drain before this
// request's deadline, waiting would only burn a queue position to earn a
// 503 at the deadline anyway — reject early, while the client's retry
// budget is still worth something.
func (s *Server) shouldShed(ctx context.Context) bool {
	// Failpoint "server/shed": force the overload verdict so the 503 +
	// Retry-After + client-retry contract is testable without
	// manufacturing real load.
	if err := fault.Hit("server/shed"); err != nil {
		return true
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		return false
	}
	depth := s.metrics.queueDepth.Load()
	if depth <= 0 || s.metrics.reqHist.Count() < shedMinSamples {
		return false
	}
	return time.Duration(depth)*s.metrics.reqHist.Quantile(0.5) > time.Until(deadline)
}

// writeUnavailable writes a 503 with the Retry-After hint every 503
// carries: the median recent slot wait (rounded up to whole seconds,
// clamped to [1s, 60s]) — the service's best estimate of when a retry
// will actually find capacity. The retry contract is documented in the
// README's HTTP API section; cmd/migpipe's client honors the hint.
func (s *Server) writeUnavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	s.writeError(w, http.StatusServiceUnavailable, "%s", msg)
}

func (s *Server) retryAfterSeconds() int {
	secs := int(math.Ceil(s.metrics.slotWait.Quantile(0.5).Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// buildResponse converts one engine result into its wire form, rendering
// the optimized netlist and running the optional equivalence check. The
// check is bounded by the request's remaining deadline — SAT equivalence
// on large circuits can dwarf the optimization itself, and the service's
// contract is that no request works past its deadline.
func (s *Server) buildResponse(ctx context.Context, req BatchRequest, i int, in *mig.MIG, res engine.Result) OptimizeResponse {
	resp := OptimizeResponse{Name: res.Name, Stats: res.Stats}
	if res.Err != nil {
		resp.Error = res.Err.Error()
		return resp
	}
	netlist, err := writeNetlist(res.M, req.Jobs[i].Format)
	if err != nil {
		resp.Error = err.Error()
		return resp
	}
	resp.Netlist = netlist
	if vmode, _ := req.verifyMode(); vmode != "" {
		_, vspan := obs.Start(ctx, "verify")
		defer vspan.End()
		vspan.SetStr("job", res.Name)
		vspan.SetStr("mode", vmode)
		opt := mig.EquivOptions{}
		switch vmode {
		case "sat":
			opt.SimPatterns = -1 // pure SAT miter, no prefilter
		case "sim":
			opt.NoSAT = true // refute-only: clean means SimClean, not Verified
		}
		if deadline, ok := ctx.Deadline(); ok {
			if opt.Timeout = time.Until(deadline); opt.Timeout <= 0 {
				resp.Error = "request deadline expired before the equivalence check could run"
				return resp
			}
		}
		eq, ce, st, err := mig.EquivalentOpt(in, res.M, opt)
		if err != nil {
			resp.Error = fmt.Sprintf("equivalence check failed to run: %v", err)
			return resp
		}
		if !eq {
			resp.Error = fmt.Sprintf("optimized netlist miscompares on input %v", ce)
			return resp
		}
		if st.Proven {
			resp.Verified = &eq
		} else {
			resp.SimClean = &eq
		}
	}
	return resp
}

func jobName(j BatchJobRequest, i int, batch bool) string {
	if j.Name != "" {
		return j.Name
	}
	if batch {
		return fmt.Sprintf("job%d", i)
	}
	return "job"
}

func (s *Server) handleScripts(w http.ResponseWriter, r *http.Request) {
	var infos []ScriptInfo
	for _, name := range engine.PresetNames() {
		p, err := engine.Preset(name)
		if err != nil {
			continue
		}
		passes := make([]string, len(p.Passes))
		for i, pass := range p.Passes {
			passes[i] = pass.Name()
		}
		infos = append(infos, ScriptInfo{Name: name, Passes: passes})
	}
	s.writeJSON(w, http.StatusOK, map[string][]ScriptInfo{"scripts": infos})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// writeJSON writes a 2xx JSON response and counts it, the success twin
// of writeError: every request outcome increments exactly one of
// responses_total / error_responses_total (the accounting-audit test
// pins this across all endpoints and failure modes).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	s.metrics.responses.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// streamWriter serializes concurrent stream events onto one chunked
// response body, flushing after every line so clients see pass progress
// as it happens.
type streamWriter struct {
	mu    sync.Mutex
	w     http.ResponseWriter
	flush http.Flusher
	enc   *json.Encoder
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	sw := &streamWriter{w: w, enc: json.NewEncoder(w)}
	sw.flush, _ = w.(http.Flusher)
	return sw
}

func (sw *streamWriter) send(ev StreamEvent) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.enc.Encode(ev)
	if sw.flush != nil {
		sw.flush.Flush()
	}
}
