package rewrite

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"time"

	"mighash/internal/cut"
	"mighash/internal/db"
	"mighash/internal/extract"
	"mighash/internal/mig"
	"mighash/internal/obs"
	"mighash/internal/tt"
)

// Options selects and tunes a functional-hashing variant.
type Options struct {
	// BottomUp switches from the top-down greedy Algorithm 1 to the
	// bottom-up dynamic-programming Algorithm 2. Bottom-up rewriting
	// requires FFR (candidate lists are only sound inside a fanout-free
	// region, where intermediate results have a single consumer).
	BottomUp bool
	// FFR partitions the graph into fanout-free regions first and rewrites
	// each region in isolation (Sec. IV-C).
	FFR bool
	// DepthPreserve discards cuts whose replacement would increase the
	// arrival time of the root (the paper's depth heuristic; variants
	// TD/TFD). The check is arrival-accurate: each leaf's level plus the
	// matching leaf depth of the minimum MIG is compared against the
	// root's current level, which also catches the individual-path
	// enlargement the paper warns about.
	DepthPreserve bool
	// AllowZeroGain also applies replacements with zero size gain when
	// they locally reduce depth. Off in the paper's variants; used by the
	// ablation benchmarks.
	AllowZeroGain bool

	// Cache, when non-nil, memoizes the NPN canonicalization + database
	// lookup of every cut function through a concurrency-safe sharded map.
	// One cache can be shared across passes and across goroutines (the
	// engine's pipelines and batch runner do both); hits and misses of
	// this pass are reported in Stats.
	Cache *db.Cache

	// K selects the functional-hashing cut width: 4 (the paper's setting,
	// default) or 5. At K = 5 enumeration additionally yields five-leaf
	// cuts whose classes resolve through the on-demand exact-synthesis
	// store (Exact5) instead of the precomputed database; cuts of at most
	// four leaves keep using the 4-input path, so a K = 5 pass subsumes
	// the K = 4 one.
	K int
	// Exact5 supplies (and learns) the minimum MIGs of 5-input classes
	// when K = 5. Sharing one store across passes, runs, and batch
	// workers amortizes the per-class synthesis; a nil store makes Run
	// allocate a private one with default budgets. Ignored at K = 4.
	Exact5 *db.OnDemand
	// Ctx cancels in-flight exact synthesis (the only unbounded work a
	// pass can do): when it fires, un-learned 5-input classes resolve as
	// misses and the pass completes with what it has. The engine threads
	// each request's context through here so server deadlines abandon
	// running ladders. nil means context.Background().
	Ctx context.Context

	// Workers bounds intra-graph parallelism of the top-down variants:
	// best-cut evaluation is fanned out over independent fanout-free
	// regions on a worker pool, then committed serially in topological
	// order, so the optimized graph is bit-identical for every worker
	// count. 0 or 1 evaluates serially; bottom-up passes ignore it. With
	// a shared Cache the per-pass hit/miss split may vary between runs
	// (two workers can race to canonicalize the same function); the graph
	// never does.
	Workers int
	// Workspace, when non-nil, supplies the reusable scratch state (cut
	// arenas, cone-analysis stamps, decision memos) so repeated passes
	// stop allocating. A nil Workspace makes Run allocate a private one.
	// A Workspace must not be used by two concurrent Runs.
	Workspace *Workspace

	// MaxCuts caps the per-node cut sets (default 24).
	MaxCuts int
	// MaxCandidates caps the bottom-up candidate lists (default 8),
	// mirroring priority cuts in technology mapping.
	MaxCandidates int
	// PerLeafCandidates caps how many candidates of each cut leaf are
	// combined in Algorithm 2 line 7 (default 2).
	PerLeafCandidates int

	// Extract switches the top-down variants from greedy per-cut commits
	// to choice-aware extraction: evaluation records every profitable
	// (cut, candidate) pair — including the database's alternative
	// candidates per class — into a choice graph, internal/extract picks
	// a globally best cover, and the pass commits whichever of the
	// greedy and extracted results scores better, so an extraction pass
	// is never worse than its greedy twin. Ignored by bottom-up passes.
	Extract bool
	// ExtractObjective selects what the extraction minimizes (size by
	// default; extract.Depth trades gates for shorter critical paths).
	// Only read when Extract is set.
	ExtractObjective extract.Objective
	// MaxChoices caps the recorded (cut, candidate) pairs per node
	// (default 16). The greedy twin is computed uncapped, so tightening
	// the cap can only reduce the extraction's menu, never the
	// never-worse guarantee.
	MaxChoices int
}

// The paper's five experiment variants (Sec. V, Tables III and IV).
var (
	TF  = Options{FFR: true}
	T   = Options{}
	TFD = Options{FFR: true, DepthPreserve: true}
	TD  = Options{DepthPreserve: true}
	BF  = Options{BottomUp: true, FFR: true}
)

// VariantName returns the pass name of o: the paper's acronym, suffixed
// with "5" at cut width 5 and with "x" (or "xd" under the depth
// objective) for choice-aware extraction. Configurations outside the
// pass grammar (see ParseVariant) get a descriptive string.
func VariantName(o Options) string {
	name := baseVariantName(o)
	if o.K == 5 {
		name += "5"
	}
	if o.Extract && !o.BottomUp {
		if o.ExtractObjective == extract.Depth {
			name += "xd"
		} else {
			name += "x"
		}
	}
	return name
}

// grammar maps every pass name to its configuration: each top-down
// variant of the paper (T, TF, TD, TFD) at cut width 4 or 5, greedy or
// choice-aware under either extraction objective, plus the bottom-up BF,
// which has neither extension. The names are VariantName's, so the two
// cannot disagree.
var grammar = func() map[string]Options {
	g := map[string]Options{"BF": BF}
	for _, base := range []Options{T, TF, TD, TFD} {
		for _, k := range []int{0, 5} {
			for _, x := range []Options{{}, {Extract: true}, {Extract: true, ExtractObjective: extract.Depth}} {
				o := base
				o.K, o.Extract, o.ExtractObjective = k, x.Extract, x.ExtractObjective
				g[VariantName(o)] = o
			}
		}
	}
	return g
}()

// ParseVariant is the inverse of VariantName over the pass grammar: it
// returns the configuration a pass name spells ("TF", "TFD5", "TF5x",
// "Txd", …) and false for any other string.
func ParseVariant(name string) (Options, bool) {
	o, ok := grammar[name]
	return o, ok
}

// VariantNames lists the 25 names ParseVariant accepts, sorted.
func VariantNames() []string { return slices.Sorted(maps.Keys(grammar)) }

func baseVariantName(o Options) string {
	switch {
	case o.BottomUp && o.FFR && !o.DepthPreserve:
		return "BF"
	case o.BottomUp:
		return "B?"
	case o.FFR && o.DepthPreserve:
		return "TFD"
	case o.FFR:
		return "TF"
	case o.DepthPreserve:
		return "TD"
	default:
		return "T"
	}
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 4
	}
	if o.K != 4 && o.K != 5 {
		panic(fmt.Sprintf("rewrite: unsupported cut width %d (want 4 or 5)", o.K))
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	if o.MaxCuts == 0 {
		o.MaxCuts = 24
	}
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 8
	}
	if o.PerLeafCandidates == 0 {
		o.PerLeafCandidates = 2
	}
	if o.MaxChoices == 0 {
		o.MaxChoices = 16
	}
	if o.BottomUp {
		o.Extract = false // candidate lists already explore tradeoffs per FFR
	}
	return o
}

// Stats reports one rewriting pass.
type Stats struct {
	Variant                 string
	SizeBefore, SizeAfter   int
	DepthBefore, DepthAfter int
	Replacements            int // cuts replaced by database MIGs
	// NPN cut-cache traffic of this pass (zero when Options.Cache is nil).
	CacheHits, CacheMisses int
	// Choice-aware extraction (zero unless Options.Extract ran): the
	// (cut, candidate) pairs recorded into the choice graph, and the
	// gates the extracted cover saved over the pass's greedy twin (0
	// when the twin won the comparison).
	Choices      int
	ExtractSaved int
	Elapsed      time.Duration
}

// CacheHitRate returns the fraction of this pass's database lookups
// served by the NPN cut-cache, or 0 when no cache was attached.
func (s Stats) CacheHitRate() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

func (s Stats) String() string {
	out := fmt.Sprintf("%s: size %d→%d, depth %d→%d, %d replacements, %v",
		s.Variant, s.SizeBefore, s.SizeAfter, s.DepthBefore, s.DepthAfter, s.Replacements, s.Elapsed)
	if s.CacheHits+s.CacheMisses > 0 {
		out += fmt.Sprintf(", cache %.0f%% of %d", 100*s.CacheHitRate(), s.CacheHits+s.CacheMisses)
	}
	if s.Choices > 0 {
		out += fmt.Sprintf(", %d choices (extract saved %d)", s.Choices, s.ExtractSaved)
	}
	return out
}

// Workspace owns every reusable buffer of a rewriting pass: the cut-set
// arena, the per-worker cone-analysis scratch, the best-cut decision memo
// and the commit-phase buffers. Reusing one Workspace across passes (the
// engine does this per pipeline run) makes the steady-state hot path
// allocation-free. A Workspace must not be shared by concurrent Runs;
// inside one Run, the parallel evaluation phase hands each worker its own
// evalState.
type Workspace struct {
	cuts    cut.Workspace
	eval    []evalState    // one per worker; eval[0] serves the serial paths
	best    []candidateCut // per-node best replacement (entry == nil: none)
	decided []bool         // per-node: best[v] is valid
	res     []mig.Lit      // commit phase: node implementations
	known   []bool         // commit phase: res[v] is valid
	stack   []mig.ID       // commit phase DFS stack
	perm    []mig.ID       // live gates grouped by FFR for the worker pool
	starts  []int32        // region boundaries into perm
	sig     []mig.Lit      // instantiate scratch
	sel     []candidate    // bottom-up combination scratch
	choices [][]choiceRec  // choice mode: per-node recorded menus
	graph   extract.Graph  // choice mode: arena reused across passes
}

// NewWorkspace returns an empty workspace; buffers are sized on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// evalState is the per-worker mutable state of best-cut evaluation.
type evalState struct {
	cone         *mig.Workspace
	hits, misses int
}

// prepare sizes the per-node arrays for an n-node graph, resets the
// decision memo and guarantees one evalState per worker.
func (w *Workspace) prepare(n, workers int) {
	if cap(w.best) < n {
		w.best = make([]candidateCut, n)
		w.decided = make([]bool, n)
		w.res = make([]mig.Lit, n)
		w.known = make([]bool, n)
	}
	w.best = w.best[:n]
	w.decided = w.decided[:n]
	w.res = w.res[:n]
	w.known = w.known[:n]
	clear(w.best)
	clear(w.decided)
	clear(w.known)
	for len(w.eval) < workers {
		w.eval = append(w.eval, evalState{cone: mig.NewWorkspace()})
	}
	for i := range w.eval {
		w.eval[i].hits, w.eval[i].misses = 0, 0
	}
}

// Run applies one functional-hashing pass over m and returns the optimized
// MIG (a fresh graph; m is unchanged). The database provides the minimum
// representations; db.MustLoad() supplies the embedded one.
func Run(m *mig.MIG, d *db.DB, opt Options) (*mig.MIG, Stats) {
	opt = opt.withDefaults()
	if opt.BottomUp && !opt.FFR {
		panic("rewrite: bottom-up rewriting requires fanout-free-region partitioning")
	}
	start := time.Now()
	ws := opt.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}
	workers := opt.Workers
	if workers < 1 || opt.BottomUp {
		workers = 1
	}
	if opt.K == 5 && opt.Exact5 == nil {
		opt.Exact5 = db.NewOnDemand(db.OnDemandOptions{})
	}
	ws.prepare(m.NumNodes(), workers)
	r := &rewriter{
		m:         m,
		d:         d,
		opt:       opt,
		ws:        ws,
		cuts:      ws.cuts.Enumerate(m, cut.Options{K: opt.K, MaxCuts: opt.MaxCuts}),
		fo:        m.FanoutCounts(),
		out:       mig.New(m.NumPIs()),
		oldLevels: m.Levels(),
	}
	if opt.FFR {
		r.ffr = m.FFRRoots()
	}
	if opt.BottomUp {
		// Bottom-up is evaluate-and-commit interleaved per FFR; it gets a
		// single commit-phase span (ladders of its K = 5 variants nest here).
		cctx, cspan := obs.Start(r.opt.Ctx, "rewrite.commit")
		r.opt.Ctx = cctx
		r.runBottomUp()
		cspan.End()
	} else if opt.Extract {
		r.runChoice(workers)
	} else {
		r.runTopDown(workers)
	}
	res := r.done
	if res == nil {
		res = r.out.Compact()
	}
	for i := range ws.eval {
		r.cacheHits += ws.eval[i].hits
		r.cacheMisses += ws.eval[i].misses
	}
	// Every Stats metric is computed exactly once: the input depth falls
	// out of the levels the depth heuristic already needed, the input size
	// out of one workspace-backed sweep, and the result size/depth out of
	// one pass each over the compacted graph.
	depthBefore := 0
	for _, o := range m.Outputs() {
		if l := r.oldLevels[o.ID()]; l > depthBefore {
			depthBefore = l
		}
	}
	st := Stats{
		Variant:      VariantName(opt),
		SizeBefore:   m.SizeWS(ws.eval[0].cone),
		SizeAfter:    res.Size(),
		DepthBefore:  depthBefore,
		DepthAfter:   res.Depth(),
		Replacements: r.replacements,
		CacheHits:    r.cacheHits,
		CacheMisses:  r.cacheMisses,
		Choices:      r.choiceCount,
		ExtractSaved: r.extractSaved,
		Elapsed:      time.Since(start),
	}
	return res, st
}

// rewriter carries the shared state of one pass. During the parallel
// evaluation phase everything here is read-only; only the per-worker
// evalStates and distinct ws.best/ws.decided slots are written.
type rewriter struct {
	m    *mig.MIG
	d    *db.DB
	opt  Options
	ws   *Workspace
	cuts [][]cut.Cut
	fo   []int
	ffr  []mig.ID // FFR root per node (nil when not partitioning)
	out  *mig.MIG

	oldLevels []int // levels in the input graph, for the depth heuristic

	levels       []int // level of every node in out (maintained on creation)
	replacements int

	cacheHits, cacheMisses int // this pass's NPN cut-cache traffic

	roots []mig.ID // scheduling partition of the last evaluateAll
	// Choice mode (Options.Extract): the chosen compacted result — Run
	// falls back to compacting r.out when nil — and its stats.
	done         *mig.MIG
	choiceCount  int
	extractSaved int
}

// addMaj creates a majority gate in the output graph, keeping the level
// array in sync so candidate depths are available without re-traversal.
func (r *rewriter) addMaj(a, b, c mig.Lit) mig.Lit {
	l := r.out.Maj(a, b, c)
	r.growLevels()
	return l
}

func (r *rewriter) growLevels() {
	for len(r.levels) < r.out.NumNodes() {
		id := mig.ID(len(r.levels))
		lvl := 0
		if r.out.IsGate(id) {
			for _, ch := range r.out.Fanin(id) {
				if l := r.levels[ch.ID()]; l >= lvl {
					lvl = l + 1
				}
			}
		}
		r.levels = append(r.levels, lvl)
	}
}

func (r *rewriter) level(l mig.Lit) int {
	r.growLevels()
	return r.levels[l.ID()]
}

// candidateCut is one admissible replacement for a node. leaves aliases
// the cut-set arena of the pass's workspace.
type candidateCut struct {
	leaves []mig.ID
	entry  *db.Entry
	tr     transformRef
	gain   int
	depth  int // structural depth of the replacement
}

// transformRef avoids importing npn here twice; see lookup.
type transformRef struct {
	perm   [5]int
	flip   uint8
	negOut bool
}

// lookup resolves the database entry for the cut's function plus
// instantiation data, or nil when the class is absent. The function comes
// straight off the cut — maintained incrementally during enumeration — so
// no cone is re-simulated. Cuts of at most four leaves resolve through
// the precomputed 4-input database (memoized by Options.Cache); at
// K = 5, five-leaf cuts resolve through — and are learned by — the
// on-demand exact-synthesis store.
func (r *rewriter) lookup(c *cut.Cut, st *evalState) (*db.Entry, transformRef) {
	if c.N == 5 {
		return r.lookup5(c)
	}
	f := tt.TT{Bits: uint64(uint16(c.TT)), N: 4}
	e, t, ok, hit := r.d.LookupCached(f, r.opt.Cache)
	if r.opt.Cache != nil {
		if hit {
			st.hits++
		} else {
			st.misses++
		}
	}
	if !ok {
		return nil, transformRef{}
	}
	var tr transformRef
	for j := 0; j < 4; j++ {
		tr.perm[j] = t.Perm[j]
	}
	tr.flip = t.Flip
	tr.negOut = t.NegOut
	return e, tr
}

// lookup5 resolves a five-leaf cut through the on-demand store. Cut
// functions that do not actually depend on all five leaves are skipped:
// their minimum MIGs are (embedded) 4-input classes the precomputed
// database already owns, and keeping them out preserves the store's
// "every entry is a genuine 5-input class" invariant.
//
// Lookup blocks while the class is synthesized (first contact only), so
// a deterministic budget makes the learned database — and therefore
// every downstream decision — identical at any worker count.
func (r *rewriter) lookup5(c *cut.Cut) (*db.Entry, transformRef) {
	f := tt.TT{Bits: uint64(c.TT), N: 5}
	if f.SupportSize() != 5 {
		return nil, transformRef{}
	}
	e, t, ok := r.opt.Exact5.Lookup(r.opt.Ctx, f)
	if !ok {
		return nil, transformRef{}
	}
	var tr transformRef
	for j := 0; j < 5; j++ {
		tr.perm[j] = t.Perm[j]
	}
	tr.flip = t.Flip
	tr.negOut = t.NegOut
	return e, tr
}

// instantiate builds the entry over the given leaf signals (padded to
// the entry width with constant 0) in the output graph.
func (r *rewriter) instantiate(e *db.Entry, tr transformRef, leafSigs []mig.Lit) mig.Lit {
	k := e.K()
	var padded [5]mig.Lit
	copy(padded[:], leafSigs)
	need := 1 + k + e.Size()
	if cap(r.ws.sig) < need {
		r.ws.sig = make([]mig.Lit, 0, need+32)
	}
	sig := r.ws.sig[:need]
	sig[0] = mig.Const0
	for j := 0; j < k; j++ {
		sig[1+j] = padded[tr.perm[j]].NotIf(tr.flip>>uint(j)&1 == 1)
	}
	at := func(l mig.Lit) mig.Lit { return sig[l.ID()].NotIf(l.Comp()) }
	for l, g := range e.Gates {
		sig[1+k+l] = r.addMaj(at(g[0]), at(g[1]), at(g[2]))
	}
	return at(e.Out).NotIf(tr.negOut)
}

// coneAdmissible reports whether the cone of v bounded by leaves may be
// replaced under the current options, and returns its internal gates. The
// returned slice aliases st.cone and is only valid until the next cone
// analysis on the same evalState.
func (r *rewriter) coneAdmissible(v mig.ID, leaves []mig.ID, st *evalState) ([]mig.ID, bool) {
	nodes := r.m.ConeNodesWS(st.cone, v, leaves)
	if len(nodes) == 0 {
		return nil, false
	}
	if r.ffr != nil {
		// Sec. IV-C: every internal gate must live in v's fanout-free
		// region; the region structure then guarantees replaceability.
		root := r.ffr[v]
		for _, id := range nodes {
			if r.ffr[id] != root {
				return nil, false
			}
		}
		return nodes, true
	}
	// Whole-graph mode: exclude cuts whose internal gates have fanout that
	// escapes the cone ("not to include them when enumerating cuts").
	if !r.m.ConeSelfContainedWS(st.cone, nodes, v, r.fo) {
		return nil, false
	}
	return nodes, true
}

// arrivalOf predicts the level of the cut root after replacement: every
// representative input j of the entry is driven by leaves[t.Perm[j]], so
// the root arrives LeafDepth[j] gates after that leaf.
func (r *rewriter) arrivalOf(e *db.Entry, tr transformRef, leaves []mig.ID) int {
	arr := 0
	for j := 0; j < e.K(); j++ {
		ld := e.LeafDepth[j]
		if ld < 0 || tr.perm[j] >= len(leaves) {
			continue // unused input or constant-padded position
		}
		if a := r.oldLevels[leaves[tr.perm[j]]] + ld; a > arr {
			arr = a
		}
	}
	return arr
}

// bestCut evaluates all admissible cuts of v and returns the most
// profitable replacement under the current options. It is a pure function
// of v over the pass's read-only state — the property the parallel
// evaluation phase relies on — and allocates nothing in the steady state.
func (r *rewriter) bestCut(v mig.ID, st *evalState) (best candidateCut, found bool) {
	for i := range r.cuts[v] {
		c := &r.cuts[v][i]
		if c.N == 1 && c.L[0] == v {
			continue // trivial cut: replaces nothing
		}
		leaves := c.Leaves()
		nodes, ok := r.coneAdmissible(v, leaves, st)
		if !ok {
			continue
		}
		e, tr := r.lookup(c, st)
		if e == nil {
			continue
		}
		gain := len(nodes) - e.Size()
		if gain < 0 || (gain == 0 && !r.opt.AllowZeroGain) {
			continue
		}
		if r.opt.DepthPreserve && r.arrivalOf(e, tr, leaves) > r.oldLevels[v] {
			continue
		}
		if gain == 0 && r.arrivalOf(e, tr, leaves) >= r.oldLevels[v] {
			continue // zero-gain replacements must at least reduce arrival
		}
		cand := candidateCut{leaves: leaves, entry: e, tr: tr, gain: gain, depth: e.Depth}
		if !found || cand.gain > best.gain ||
			(cand.gain == best.gain && cand.depth < best.depth) {
			best, found = cand, true
		}
	}
	return best, found
}
