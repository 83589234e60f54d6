// Package mighash is a self-contained Go implementation of
//
//	M. Soeken, L. G. Amarù, P.-E. Gaillardon, G. De Micheli:
//	"Optimizing Majority-Inverter Graphs with Functional Hashing",
//	DATE 2016,
//
// including every substrate the paper depends on: truth tables, NPN
// classification, a CDCL SAT solver, SAT-based exact synthesis of minimum
// MIGs, the precomputed optimal-MIG database for all 222 NPN classes of
// 4-variable functions, cut enumeration, the five functional-hashing
// variants (TF, T, TFD, TD, BF), algebraic depth optimization, k-LUT
// technology mapping and generators for the arithmetic benchmarks of the
// experimental section.
//
// Beyond the paper, the internal/engine subsystem scales the single-shot
// passes into a batch-optimization engine: composable pass pipelines with
// run-to-convergence semantics and a bounded worker pool for optimizing
// many graphs at once.
// Functional hashing extends past the paper's 4-input database to
// on-demand 5-input hashing: Canonize5 semi-canonicalizes 5-variable
// functions without the exhaustive transform sweep, and an Exact5Store
// learns each class's minimum MIG by budgeted exact synthesis on first
// contact (the K = 5 passes such as TF5 and the resyn5/size5 scripts),
// persisting the learned database across processes. Choice-aware
// extraction (the x passes such as TFx and the
// resyn-x / depth-x scripts) replaces the greedy per-cut commit with a two-phase
// scheme: record every profitable (cut, candidate) pair into a choice
// graph, then extract a globally best cover under a size or depth
// objective — never worse than the greedy result, often strictly
// better. The
// rewriting hot path is allocation-free in the steady state — cuts carry
// their truth tables, cone analysis uses epoch-stamped workspaces — and
// each pass is one serial, deterministic walk; parallelism comes from
// optimizing many graphs (or the output cones of one, SplitOutputs) at
// once. The internal/server subsystem serves the
// engine over HTTP (cmd/migserve): JSON requests carrying BENCH/MIG
// netlists, streamed per-pass statistics, and per-request deadlines and
// size limits — embed it with NewOptimizeServer. The internal/obs
// subsystem threads a zero-overhead-when-off span tracer from the HTTP
// request down to individual SAT ladders (NewTracer / StartSpan),
// exporting Chrome trace-event JSON and Prometheus latency histograms.
// Verification is a ladder: the internal/sim word-parallel simulator
// (64 patterns per machine word) refutes cheaply with a deterministic,
// counterexample-replaying pattern pool, and the SAT miter proves what
// simulation cannot refute — EquivalentOpt exposes the rungs, and the
// internal/sim/diff harness re-checks every pass of every pipeline.
//
// This root package is the stable public surface; the examples/ directory
// only uses what is exported here. See README.md for a quickstart and the
// package tour.
package mighash

import (
	"context"
	"io"

	"mighash/internal/aig"
	"mighash/internal/circuits"
	"mighash/internal/db"
	"mighash/internal/depthopt"
	"mighash/internal/engine"
	"mighash/internal/exact"
	"mighash/internal/extract"
	"mighash/internal/mapper"
	"mighash/internal/mig"
	"mighash/internal/npn"
	"mighash/internal/obs"
	"mighash/internal/qor"
	"mighash/internal/rewrite"
	"mighash/internal/server"
	"mighash/internal/sim"
	"mighash/internal/tt"
)

// Core MIG data structure (Sec. II-B of the paper).
type (
	// MIG is a majority-inverter graph: a DAG of three-input majority
	// gates with complemented edges.
	MIG = mig.MIG
	// Lit is an MIG signal: node ID plus complement bit.
	Lit = mig.Lit
	// ID is an MIG node identifier.
	ID = mig.ID
	// MIGStats summarizes a graph (inputs, outputs, size, depth).
	MIGStats = mig.Stats
	// Counterexample is a distinguishing input found by CEC.
	Counterexample = mig.Counterexample
)

// The two constant signals.
const (
	Const0 = mig.Const0
	Const1 = mig.Const1
)

// NewMIG returns an empty graph over the given primary inputs.
func NewMIG(numPIs int) *MIG { return mig.New(numPIs) }

// ReadMIG parses the textual netlist format written by MIG.WriteText.
func ReadMIG(r io.Reader) (*MIG, error) { return mig.ReadText(r) }

// ReadBENCH parses a BENCH netlist (the ISCAS/LGSynth dialect used by ABC
// and academic tools, extended with a ternary MAJ gate) into an MIG;
// AND/OR/NAND/NOR/NOT/BUF/XOR/XNOR gates are lowered onto majority
// gadgets. Gate lines may use signals defined on later lines, and parsing
// takes time linear in the size of the netlist whatever the order of
// its lines. The inverse is the MIG.WriteBENCH method; writing is
// canonicalizing, and parse→write is idempotent from the first written
// form, so netlists round-trip byte-identically.
func ReadBENCH(r io.Reader) (*MIG, error) { return mig.ReadBENCH(r) }

// Equivalent proves or refutes functional equivalence of two MIGs
// (combinational equivalence checking): a word-parallel simulation
// prefilter refutes cheap inequivalences, the built-in SAT solver
// proves the rest.
var Equivalent = mig.Equivalent

// Equivalence checking with the verification ladder exposed: how many
// patterns the simulation prefilter sweeps, whether SAT may run at all,
// and which rung decided the answer.
type (
	// EquivOptions tunes EquivalentOpt: the SAT timeout, the simulation
	// pattern budget (negative disables the prefilter), a shared
	// counterexample-replaying pattern pool, and the refute-only NoSAT
	// mode used for per-pass differential verification.
	EquivOptions = mig.EquivOptions
	// EquivStats reports how an equivalence check was decided: patterns
	// simulated, whether simulation refuted, whether SAT ran, and
	// whether the verdict is a proof.
	EquivStats = mig.EquivStats
)

// EquivalentOpt is Equivalent with the verification ladder exposed; the
// returned Counterexample (if any) carries the full input assignment
// and every differing output.
var EquivalentOpt = mig.EquivalentOpt

// SimPool is the deterministic simulation pattern ladder shared across
// equivalence checks: constants, recorded counterexamples (replayed
// first), walking patterns, then a seeded random tail. Sharing one pool
// across EquivalentOpt calls makes checking counterexample-guided —
// every SAT model found is replayed by all later checks. Safe for
// concurrent use.
type SimPool = sim.Pool

// NewSimPool returns a pattern pool for the given primary-input count;
// the seed fixes the random tail, making sweeps bit-reproducible.
var NewSimPool = sim.NewPool

// Truth tables (up to 6 variables in one machine word).
type TT = tt.TT

// NewTT builds an n-variable truth table from its bit string; bit j holds
// f on the assignment with binary encoding j.
func NewTT(n int, bits uint64) TT { return tt.New(n, bits) }

// VarTT returns the projection x_i over n variables.
func VarTT(n, i int) TT { return tt.Var(n, i) }

// NPN classification (Sec. II-D).
type NPNTransform = npn.Transform

// CanonizeNPN returns the NPN class representative of f and a transform
// t with Apply(t, rep) = f.
var CanonizeNPN = npn.Canonize

// CanonizeNPN5 returns the semi-canonical NPN representative of a
// 5-variable function — a true class invariant computed from cofactor
// signatures instead of the exhaustive transform sweep — and a transform
// t with Apply(t, rep) = f. It keys the on-demand 5-input database.
var CanonizeNPN5 = npn.Canonize5

// NumNPNClasses4 is the number of NPN classes of 4-variable functions.
func NumNPNClasses4() int { return npn.NumClasses4() }

// Exact synthesis (Sec. III).
type ExactOptions = exact.Options

// ExactMinimum synthesizes a minimum-size MIG for f by the paper's
// SAT-encoded decision ladder. The context cancels the underlying SAT
// search, so runaway instances can be abandoned (server deadlines do
// exactly that); pass context.Background() for an uninterruptible run.
var ExactMinimum = exact.Minimum

// TheoremBound is the Theorem 2 upper bound 10·(2^(n−4)−1)+7 on C(n).
var TheoremBound = db.Bound

// Optimal-MIG database (Sec. IV).
type Database = db.DB

// LoadDatabase returns the embedded, simulation-verified database of
// minimum MIGs for all 222 NPN classes.
var LoadDatabase = db.Load

// Functional hashing — the paper's primary contribution (Sec. IV).
type (
	RewriteOptions = rewrite.Options
	RewriteStats   = rewrite.Stats
)

// The five paper variants: Top-down/Bottom-up, Fanout-free regions,
// Depth-preserving. Their extensions are orthogonal RewriteOptions
// fields — K = 5 for five-leaf cuts resolved through the on-demand
// exact-synthesis store (RewriteOptions.Exact5), Extract for choice-aware
// extraction — and PipelinePass names every combination.
var (
	VariantTF  = rewrite.TF
	VariantT   = rewrite.T
	VariantTFD = rewrite.TFD
	VariantTD  = rewrite.TD
	VariantBF  = rewrite.BF
)

// Choice-aware extraction (internal/extract + internal/rewrite; beyond
// the paper): the x passes do not commit each profitable cut
// greedily — they record every profitable (cut, candidate) pair into a
// choice graph and extract a globally best cover over the whole graph
// (e-graph extraction specialized to the rewriter). The extracted
// result is never worse than the greedy twin on the same input, and
// deterministic. RewriteOptions.Extract switches a
// top-down variant into this mode; RewriteOptions.ExtractObjective
// picks what the cover minimizes. The same type is Pipeline.Objective,
// the metric a script converges on: ExtractSize ranks graphs by size
// then depth, ExtractDepth by depth then size.
type ExtractObjective = extract.Objective

// The two extraction objectives: gate count (the default) or output
// arrival time.
const (
	ExtractSize  = extract.Size
	ExtractDepth = extract.Depth
)

// Optimize applies one functional-hashing pass, returning a fresh
// optimized MIG and its statistics.
var Optimize = rewrite.Run

// RewriteWorkspace owns the reusable scratch buffers of rewriting passes
// (cut arenas, cone-analysis stamps, decision memos); installing one in
// RewriteOptions.Workspace makes repeated passes allocation-free. Must
// not be shared by concurrent runs.
type RewriteWorkspace = rewrite.Workspace

// NewRewriteWorkspace returns an empty rewrite workspace; buffers are
// sized on first use.
var NewRewriteWorkspace = rewrite.NewWorkspace

// On-demand 5-input functional hashing: at five inputs the ~616k NPN
// classes rule out a precomputed artifact, so the database is learned —
// each class's minimum MIG is synthesized on first contact under a
// deterministic budget and memoized by semi-canonical representative.
type (
	// Exact5Store is the lazy 5-input database: concurrency-safe,
	// negative-caching budget-blown classes, cancellable per lookup.
	Exact5Store = db.OnDemand
	// Exact5Options tunes the per-class synthesis budget: the gate
	// ladder cap and the SAT conflict budget.
	Exact5Options = db.OnDemandOptions
)

// NewExact5Store returns an empty on-demand store; share one across
// pipelines and batch workers so every class is synthesized once.
var NewExact5Store = db.NewOnDemand

// SaveOptimizationState atomically snapshots the learned 5-input store
// into a checksummed file that warm-starts future processes.
var SaveOptimizationState = db.SaveSnapshotFile

// LoadOptimizationState restores a snapshot into a 5-input store,
// re-verifying every learned class; corrupt files degrade to a cold
// store.
var LoadOptimizationState = db.LoadSnapshotFile

// Optimization engine: composable pass pipelines and concurrent batch
// optimization (internal/engine; beyond the paper).
type (
	// Pipeline is a named optimization script run to convergence.
	Pipeline = engine.Pipeline
	// Pass is one step of a pipeline.
	Pass = engine.Pass
	// PipelineStats reports one pipeline run.
	PipelineStats = engine.PipelineStats
	// PassStats reports one executed pass.
	PassStats = engine.PassStats
	// BatchJob is one named MIG in a batch run.
	BatchJob = engine.Job
	// BatchResult is the outcome of one BatchJob.
	BatchResult = engine.Result
	// BatchOptions tunes RunBatch (workers, and the on-disk snapshot of
	// the batch's shared 5-input store for cross-process warm-starts; the
	// store itself is Pipeline.Exact5, or one RunBatch creates).
	BatchOptions = engine.BatchOptions
)

// NewPipeline builds a custom pipeline over the given passes.
var NewPipeline = engine.New

// PipelineScript returns a preset script by name ("resyn", "size",
// "depth", "quick", or any pass name).
var PipelineScript = engine.Preset

// PipelineScripts lists every preset script name.
var PipelineScripts = engine.PresetNames

// PipelinePass resolves a pass by script name: depthopt, or one of the
// 25 names of the pass grammar — TF, T, TFD, TD, BF, and the top-down
// four suffixed with 5 (K = 5) and/or x or xd (choice-aware extraction
// under the size or depth objective), such as TF5, TFDx or TF5xd.
var PipelinePass = engine.PassByName

// RunBatch optimizes many MIGs concurrently on a bounded worker pool with
// deterministic result ordering and context cancellation.
func RunBatch(ctx context.Context, p *Pipeline, jobs []BatchJob, opt BatchOptions) ([]BatchResult, error) {
	return engine.RunBatch(ctx, p, jobs, opt)
}

// SplitOutputs decomposes an MIG into one batch job per output cone.
var SplitOutputs = engine.SplitOutputs

// HTTP optimization service (internal/server; beyond the paper): the
// engine served over HTTP with JSON netlists in and out, streaming
// per-pass stats, and bounded per-request work. cmd/migserve is the
// stand-alone binary; these exports let programs embed the service in
// their own http.Server. See the README's "The HTTP API" section.
type (
	// ServerConfig tunes an optimization server (limits, deadlines,
	// concurrency and on-disk persistence of the 5-input store). The
	// zero value uses sane defaults.
	ServerConfig = server.Config
	// OptimizeServer is the HTTP optimization service; it implements
	// http.Handler.
	OptimizeServer = server.Server
	// OptimizeRequest is the body of POST /v1/optimize.
	OptimizeRequest = server.OptimizeRequest
	// OptimizeResponse is one optimization result on the wire.
	OptimizeResponse = server.OptimizeResponse
	// OptimizeBatchRequest is the body of POST /v1/optimize/batch.
	OptimizeBatchRequest = server.BatchRequest
	// OptimizeBatchJob is one netlist of a batch request.
	OptimizeBatchJob = server.BatchJobRequest
	// OptimizeBatchResponse is the body of a batch response.
	OptimizeBatchResponse = server.BatchResponse
	// OptimizeStreamEvent is one JSON line of a streaming response.
	OptimizeStreamEvent = server.StreamEvent
	// OptimizeScriptSpec selects the pipeline of a request (preset name
	// or custom pass list, iteration cap, extraction).
	OptimizeScriptSpec = server.ScriptSpec
	// OptimizeScriptInfo describes one preset script in GET /v1/scripts.
	OptimizeScriptInfo = server.ScriptInfo
)

// NewOptimizeServer builds the HTTP optimization service; mount its
// Handler on any mux or listen with http.ListenAndServe directly.
var NewOptimizeServer = server.New

// Observability (internal/obs; beyond the paper): a zero-dependency
// span tracer and latency histograms threaded through the engine, the
// rewriters, the exact-synthesis ladders and the HTTP service. With no
// tracer in the context every span call is a nil-receiver no-op that
// allocates nothing, so instrumented hot paths cost nothing when
// tracing is off.
type (
	// Tracer collects spans for one traced run; export them as
	// Chrome trace-event JSON with WriteTrace/SaveTrace (loadable in
	// chrome://tracing or Perfetto).
	Tracer = obs.Tracer
	// TracerOptions configures span retention and the per-span-end
	// callback that feeds histograms.
	TracerOptions = obs.Options
	// TraceSpan is one timed, attributed operation; nil is a valid
	// receiver for every method.
	TraceSpan = obs.Span
	// LatencyHistogram is a fixed-bucket concurrency-safe duration
	// histogram rendered in Prometheus exposition format.
	LatencyHistogram = obs.Histogram
)

// NewTracer returns a tracer; install it with TraceContext to activate
// the spans of everything called under that context.
var NewTracer = obs.New

// TraceContext returns a context carrying the tracer; engine, rewrite
// and exact-synthesis code called under it records spans.
var TraceContext = obs.ContextWithTracer

// StartSpan opens a child span of the context's current span (or a root
// span of its tracer). It returns a nil span — every method a no-op —
// when the context carries neither, so callers never branch.
var StartSpan = obs.Start

// NewLatencyHistogram returns a histogram over the given upper bounds
// (DefaultDurationBuckets when none are given).
var NewLatencyHistogram = obs.NewHistogram

// Algebraic depth optimization (the substrate behind the paper's
// "heavily optimized" starting points, refs [3], [4]).
type (
	DepthOptions = depthopt.Options
	DepthStats   = depthopt.Stats
)

// OptimizeDepth reduces depth by majority-axiom reassociation.
var OptimizeDepth = depthopt.Optimize

// Technology mapping (Table IV substrate).
type (
	MapOptions = mapper.Options
	MapResult  = mapper.Result
)

// MapLUT covers an MIG with K-input LUTs (priority-cut mapping).
var MapLUT = mapper.Map

// Benchmark circuit generators (Sec. V workloads).
type BenchmarkSpec = circuits.Spec

// Benchmarks returns the eight EPFL-signature arithmetic circuits.
var Benchmarks = circuits.All

// BenchmarkByName looks up one benchmark generator.
var BenchmarkByName = circuits.ByName

// Word-level circuit construction.
type (
	Word           = circuits.Word
	CircuitBuilder = circuits.Builder
)

// NewCircuitBuilder returns a word-level builder over a fresh MIG.
var NewCircuitBuilder = circuits.NewBuilder

// And-Inverter Graph baseline (Sec. I and II-A of the paper).
type AIG = aig.AIG

// NewAIG returns an empty And-Inverter Graph.
var NewAIG = aig.New

// AIGFromMIG converts an MIG to an AIG (each majority gate becomes at
// most four ANDs; structural hashing shares subterms).
var AIGFromMIG = aig.FromMIG

// ExactMinimumAIG synthesizes a minimum AND-chain for f, the AIG
// counterpart of ExactMinimum used by the MIG-vs-AIG comparison.
var ExactMinimumAIG = exact.MinimumAIG

// Durable QoR (quality-of-results) trend store: one append-only JSON
// line per circuit × preset run, with build provenance and a
// noise-aware regression gate (see cmd/migtrend -history/-gate).
type (
	// QoRRecord is one circuit × preset outcome: gates, depth, runtime,
	// per-pass breakdown, cache and exact-synthesis counters, provenance.
	QoRRecord = qor.Record
	// QoRProvenance pins where a record came from: git SHA (and dirty
	// bit), timestamp, Go version, OS/arch, GOMAXPROCS.
	QoRProvenance = qor.Provenance
	// QoRPassTime is one pass's share of a record's runtime.
	QoRPassTime = qor.PassTime
	// QoRRun groups the records of one run ID for trend rendering.
	QoRRun = qor.Run
	// QoRReadStats counts lines skipped while reading a history file
	// (malformed JSON, unknown schema versions, torn tails).
	QoRReadStats = qor.ReadStats
	// QoRGateOptions tunes the regression gate's runtime noise handling
	// (relative tolerance plus an absolute floor).
	QoRGateOptions = qor.GateOptions
	// QoRGateReport is a gate comparison: per-circuit and suite-level
	// verdicts between a baseline run and the current run.
	QoRGateReport = qor.GateReport
	// QoRVerdict is one gated metric's old/new comparison.
	QoRVerdict = qor.Verdict
)

// CollectQoRProvenance captures the running binary's provenance from
// build info (go build embeds VCS metadata; go run does not).
var CollectQoRProvenance = qor.CollectProvenance

// QoRFromResult converts one engine batch result into a QoR record.
var QoRFromResult = qor.FromResult

// NewQoRRunID derives a sortable run identifier from provenance
// (UTC timestamp plus abbreviated commit).
var NewQoRRunID = qor.NewRunID

// ReadQoRFile reads a qor.jsonl history, skipping unreadable lines
// (a missing file is an empty history, not an error).
var ReadQoRFile = qor.ReadFile

// AppendQoRFile appends records to a qor.jsonl history, creating the
// file and its directory as needed.
var AppendQoRFile = qor.AppendFile

// MergeQoR merges histories, deduplicating by (run, circuit, script)
// with first-wins, sorted by provenance time.
var MergeQoR = qor.Merge

// GroupQoRRuns splits records into per-run groups, newest last.
var GroupQoRRuns = qor.GroupRuns

// CompareQoR gates the current run against a baseline run: gates and
// depth compare exactly, runtime within GateOptions tolerance.
var CompareQoR = qor.Compare
