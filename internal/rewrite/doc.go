// Package rewrite implements the paper's primary contribution: MIG size
// optimization by functional hashing (Sec. IV). Every K-feasible cut of
// the graph is NPN-canonicalized and, when profitable, replaced by the
// minimum MIG of its class — precomputed for K = 4, learned on demand
// for K = 5 (Options.K).
//
// Both traversal orders of the paper are provided — the top-down greedy
// Algorithm 1 and the bottom-up dynamic-programming Algorithm 2 — together
// with the two orthogonal options discussed in Sec. IV: restricting the
// rewriting to fanout-free regions (Sec. IV-C) and the depth-preserving
// heuristic. The five variant acronyms of the experimental section (TF, T,
// TFD, TD, BF) are predefined. Each configuration is named by the pass
// grammar: VariantName suffixes a top-down acronym with "5" at K = 5 and
// "x" or "xd" for choice-aware extraction (Options.Extract, under the
// size or depth objective), and ParseVariant inverts it over all 25
// names ("TF5", "TFDx", "TF5xd", …).
//
// A top-down pass has one decision path. Every node is evaluated once
// (bestCut): one loop over its admissible cuts, shared with the
// bottom-up candidate lists, yields Algorithm 1's greedy decision and,
// under Options.Extract, the node's menu of (cut, candidate) choices for
// internal/extract. One commit walk (runTopDown) then builds the output
// graph from whatever replacement each node is given: the greedy memo,
// or the menu entry the extraction selected. A choice-aware pass runs
// the walk twice — the greedy twin and the selected cover — and keeps
// the better result under extract.Objective.Better.
//
// The hot path — cut enumeration, cone analysis and NPN lookup — runs
// allocation-free in the steady state: cuts carry their truth tables (so
// no cone is ever re-simulated), cone traversals use epoch-stamped scratch
// arrays, each evaluation worker memoizes its 4-input lookups in a
// private db.Cache, and all of it lives in a reusable Workspace. The top-down
// variants additionally evaluate best cuts for independent fanout-free
// regions in parallel (Options.Workers) and commit them serially in
// topological order, so results are bit-identical for any worker count.
//
// Role in the functional-hashing flow: this package is the flow. It
// consumes cuts from internal/cut, canonicalization + database lookups
// through internal/db, and builds the
// optimized graph through internal/mig's structural hashing. At K = 5,
// five-leaf cuts with genuine 5-variable support resolve through
// db.OnDemand instead: the first contact with a class synthesizes its
// minimum MIG (blocking just that lookup), Options.Ctx cancels in-flight
// ladders on request deadlines, and the budget is conflict-based so the
// learned database — hence the output graph — stays bit-identical at any
// worker count. The engine (internal/engine) composes Run calls into
// scripts; the HTTP service exposes those scripts over the network.
//
// Concurrency contract: Run never modifies the input graph, so concurrent
// Run calls on the same input are safe as long as each has a private
// Workspace (Options.Workspace; one is allocated when nil). The database
// is immutable, so it may be shared freely across runs. Inside one run,
// Options.Workers > 1 parallelizes the evaluation phase over fanout-free
// regions — each worker owns an evalState slot of the Workspace, with its
// own lookup memo, and writes only the decision memos of nodes it
// claimed — while the commit phase stays serial, which is what makes the
// output deterministic.
package rewrite
