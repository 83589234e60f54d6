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

	// Workspace, when non-nil, supplies the reusable scratch state (cut
	// arenas, cone-analysis stamps, decision memos, the lookup memo) so
	// repeated passes stop allocating and keep their memoized lookups. A
	// nil Workspace makes Run allocate a private one. A Workspace must not
	// be used by two concurrent Runs.
	Workspace *Workspace

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
}

// The rewriter's fixed caps.
const (
	// maxCuts caps the per-node cut sets.
	maxCuts = 24
	// maxCandidates caps the bottom-up candidate lists, mirroring
	// priority cuts in technology mapping.
	maxCandidates = 8
	// perLeafCandidates caps how many candidates of each cut leaf are
	// combined in Algorithm 2 line 7.
	perLeafCandidates = 2
	// maxChoices caps the recorded (cut, candidate) pairs per node. The
	// greedy twin is computed uncapped, so the cap can only reduce the
	// extraction's menu, never the never-worse guarantee.
	maxChoices = 16
)

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
	// 4-input lookups of this pass answered by, and added to, the
	// workspace's lookup memo (see Workspace).
	CacheHits, CacheMisses int
	// Choice-aware extraction (zero unless Options.Extract ran): the
	// (cut, candidate) pairs recorded into the choice graph, and the
	// gates the extracted cover saved over the pass's greedy twin (0
	// when the twin won the comparison).
	Choices      int
	ExtractSaved int
	Elapsed      time.Duration
}

// CacheHitRate returns the fraction of this pass's 4-input lookups
// answered by the lookup memo, or 0 when the pass made none.
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
// blocks, the graph-analysis scratch (fanout counts, fanout-free
// regions, cone traversals, the compaction map), the 4-input lookup
// memo, the best-cut decision memo, the choice-aware menus, the output
// builder and the commit-phase buffers. Reusing one Workspace across
// passes (the engine does this per pipeline run) makes the steady-state
// hot path allocation-free, and the memo then answers the 4-input
// lookups of every pass of the run. A Workspace must not be shared by
// concurrent Runs.
type Workspace struct {
	cuts    cut.Workspace
	scratch *mig.Workspace // analyses of the input, compaction of the result
	memo    *db.Cache      // 4-input lookups, filled through d
	d       *db.DB         // the database memo was filled through
	best    []candidateCut // per-node best replacement (entry == nil: none)
	decided []bool         // per-node: best[v] is valid
	out     *mig.MIG       // the output builder, reset for every commit
	res     []mig.Lit      // commit phase: node implementations
	known   []bool         // commit phase: res[v] is valid
	stack   []mig.ID       // commit phase DFS stack
	sig     []mig.Lit      // instantiate scratch
	sel     []candidate    // bottom-up combination scratch
	visit   []candidate    // bottom-up: the list of the node being visited
	cands   []candidate    // bottom-up: every settled list, back to back
	spans   []candSpan     // bottom-up: per-node list in cands
	menus   []choiceRec    // choice mode: every node's menu, in node order
	menuOff []int32        // choice mode: node v's menu is menus[menuOff[v]:menuOff[v+1]]
	graph   extract.Graph  // choice mode: arena reused across passes
	sigs    sigTable       // choice mode: duplicate-cone IDs of the graph build
	index   mig.Index      // choice mode: the strash the input is probed through
}

// NewWorkspace returns an empty workspace; buffers are sized on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// prepare sizes the per-node arrays for an n-node graph and resets the
// decision memo. The lookup memo holds entries of d, so it starts over
// when d changes.
func (w *Workspace) prepare(d *db.DB, n int) {
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
	if w.scratch == nil {
		w.scratch = mig.NewWorkspace()
	}
	if w.memo == nil || w.d != d {
		w.d, w.memo = d, db.NewCache()
	}
	if w.out == nil {
		w.out = mig.New(0)
	}
}

// Run applies one functional-hashing pass over m and returns the optimized
// MIG (a fresh, compacted graph that shares no storage with the
// workspace; m is unchanged). The database provides the minimum
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
	if opt.K == 5 && opt.Exact5 == nil {
		opt.Exact5 = db.NewOnDemand(db.OnDemandOptions{})
	}
	ws.prepare(d, m.NumNodes())
	r := &rewriter{
		m:    m,
		d:    d,
		opt:  opt,
		ws:   ws,
		cuts: ws.cuts.Enumerate(m, cut.Options{K: opt.K, MaxCuts: maxCuts}),
		fo:   m.FanoutCountsWS(ws.scratch),
		out:  ws.out,
	}
	r.resetOut()
	if opt.FFR {
		r.ffr = m.FFRRootsWS(ws.scratch, r.fo)
	}
	var res *mig.MIG
	if opt.BottomUp {
		// Bottom-up is evaluate-and-commit interleaved per FFR; it gets a
		// single commit-phase span (ladders of its K = 5 variants nest here).
		cctx, cspan := obs.Start(r.opt.Ctx, "rewrite.commit")
		r.opt.Ctx = cctx
		r.runBottomUp()
		cspan.End()
		res = r.out.CompactWS(ws.scratch)
	} else if opt.Extract {
		res = r.runChoice()
	} else {
		// A greedy pass evaluates lazily from the commit walk.
		r.commitGreedy()
		res = r.out.CompactWS(ws.scratch)
	}
	// Every Stats metric walks no graph: the input size counts the live
	// gates of the fanout counts, the result size is the compacted
	// result's gate count, and both depths read stored output levels.
	sizeBefore := 0
	for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
		if r.fo[id] > 0 {
			sizeBefore++
		}
	}
	st := Stats{
		Variant:      VariantName(opt),
		SizeBefore:   sizeBefore,
		SizeAfter:    res.NumGates(),
		DepthBefore:  m.Depth(),
		DepthAfter:   res.Depth(),
		Replacements: r.replacements,
		CacheHits:    r.hits,
		CacheMisses:  r.misses,
		Choices:      r.choiceCount,
		ExtractSaved: r.extractSaved,
	}
	st.Elapsed = time.Since(start)
	return res, st
}

// rewriter carries the state of one pass.
type rewriter struct {
	m    *mig.MIG
	d    *db.DB
	opt  Options
	ws   *Workspace
	cuts [][]cut.Cut
	fo   []int    // fanout counts of m, in ws.scratch
	ffr  []mig.ID // FFR root per node, in ws.scratch (nil when not partitioning)
	out  *mig.MIG // the workspace's output builder

	replacements int
	hits, misses int // 4-input lookups answered by, and added to, ws.memo

	// Choice mode (Options.Extract) stats.
	choiceCount  int
	extractSaved int
}

// resetOut empties the output builder, keeping its storage, for a
// commit into a graph over m's inputs. Every result is a compacted copy
// of the builder, so the builder stays the workspace's.
func (r *rewriter) resetOut() {
	r.out.Reset(r.m.NumPIs())
	r.replacements = 0
}

// replacement is one way to rebuild a node: instantiate entry over the
// leaves of cut under transform tr. cut points into the cut-set blocks
// of the pass's workspace. Every node's greedy decision and every menu
// entry is one, so it is kept at 24 bytes.
type replacement struct {
	cut   *cut.Cut
	entry *db.Entry
	tr    transformRef
}

// leaves returns the cut leaves, which alias the cut-set blocks.
func (rep *replacement) leaves() []mig.ID { return rep.cut.Leaves() }

// candidateCut is a node's greedy decision: the replacement and the
// gates it saves.
type candidateCut struct {
	replacement
	gain int
}

// transformRef is the part of an npn.Transform instantiation reads,
// packed: perm[j] is the cut-leaf position feeding entry input j.
type transformRef struct {
	perm   [5]uint8
	flip   uint8
	negOut bool
}

// lookup resolves the database entry for the cut's function plus
// instantiation data, or nil when the class is absent. The function comes
// straight off the cut — maintained incrementally during enumeration — so
// no cone is re-simulated. Cuts of at most four leaves resolve through
// the precomputed 4-input database, memoized in the workspace's memo; at
// K = 5, five-leaf cuts resolve through — and are learned by — the
// on-demand exact-synthesis store.
func (r *rewriter) lookup(c *cut.Cut) (*db.Entry, transformRef) {
	if c.N == 5 {
		return r.lookup5(c)
	}
	f := tt.TT{Bits: uint64(uint16(c.TT)), N: 4}
	e, t, ok, hit := r.d.LookupCached(f, r.ws.memo)
	if hit {
		r.hits++
	} else {
		r.misses++
	}
	if !ok {
		return nil, transformRef{}
	}
	var tr transformRef
	for j := 0; j < 4; j++ {
		tr.perm[j] = uint8(t.Perm[j])
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
// every downstream decision — identical however the runs sharing the
// store interleave.
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
		tr.perm[j] = uint8(t.Perm[j])
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
		sig[1+k+l] = r.out.Maj(at(g[0]), at(g[1]), at(g[2]))
	}
	return at(e.Out).NotIf(tr.negOut)
}

// coneAdmissible reports whether the cone of v bounded by leaves may be
// replaced under the current options, and returns its internal gates. The
// returned slice aliases the workspace's cone scratch and is only valid
// until the next cone analysis.
func (r *rewriter) coneAdmissible(v mig.ID, leaves []mig.ID) ([]mig.ID, bool) {
	nodes := r.m.ConeNodesWS(r.ws.scratch, v, leaves)
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
	if !r.m.ConeSelfContainedWS(r.ws.scratch, nodes, v, r.fo) {
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
		ld, p := e.LeafDepth[j], int(tr.perm[j])
		if ld < 0 || p >= len(leaves) {
			continue // unused input or constant-padded position
		}
		if a := r.m.Level(leaves[p]) + ld; a > arr {
			arr = a
		}
	}
	return arr
}

// eachCut calls fn for every cut of v a pass may replace — the trivial
// cut skipped, the cone admissible under the current options, the cut
// function's class known — with the replacement the database offers and
// the cone's internal gates (which alias the cone scratch until the next
// cone analysis). Top-down evaluation (bestCut) and the bottom-up
// candidate lists (runBottomUp) share this loop.
func (r *rewriter) eachCut(v mig.ID, fn func(rep replacement, cone []mig.ID)) {
	for i := range r.cuts[v] {
		c := &r.cuts[v][i]
		if c.N == 1 && c.L[0] == v {
			continue // trivial cut: replaces nothing
		}
		cone, ok := r.coneAdmissible(v, c.Leaves())
		if !ok {
			continue
		}
		e, tr := r.lookup(c)
		if e == nil {
			continue
		}
		fn(replacement{cut: c, entry: e, tr: tr}, cone)
	}
}

// bestCut is the one per-node evaluation of a top-down pass. It runs v's
// cut loop once and memoizes Algorithm 1's decision in ws.best[v]: the
// replacement saving the most gates, ties to the shallower structure,
// the first cut winning exact ties. Only replacements that save a gate
// are taken, and DepthPreserve drops any that would delay v.
//
// With Options.Extract the same loop also records v's menu, appended to
// ws.menus: every candidate implementation of every admissible cut,
// priced at its effective cost. A candidate whose nominal size exceeds
// the cone is still admitted when enough of its gates already exist
// outside the cone — greedy must skip those, but the extractor may find
// they make the global cover cheaper — and zero-gain entries are
// recorded too, since locally neutral choices are exactly the ones
// global sharing can turn profitable. The menu caps itself at
// maxChoices; the greedy decision is uncapped.
//
// bestCut is a pure function of v over the input graph, so evaluating
// every gate up front (choice mode) or on first visit (greedy) decides
// the same; it allocates nothing in the steady state.
func (r *rewriter) bestCut(v mig.ID) {
	ws := r.ws
	var best candidateCut
	start := len(ws.menus)
	r.eachCut(v, func(rep replacement, cone []mig.ID) {
		e := rep.entry
		if r.opt.Extract {
			for ci := 0; ci < e.NumCandidates() && len(ws.menus)-start < maxChoices; ci++ {
				cand := e.Candidate(ci)
				eff := r.effectiveCost(cand, rep.tr, rep.leaves(), cone)
				if len(cone)-int(eff) < 0 {
					continue
				}
				if r.opt.DepthPreserve && r.arrivalOf(cand, rep.tr, rep.leaves()) > r.m.Level(v) {
					continue
				}
				ws.menus = append(ws.menus, choiceRec{replacement{cut: rep.cut, entry: cand, tr: rep.tr}, eff})
			}
		}
		gain := len(cone) - e.Size()
		if gain <= 0 {
			return
		}
		if r.opt.DepthPreserve && r.arrivalOf(e, rep.tr, rep.leaves()) > r.m.Level(v) {
			return
		}
		if best.entry == nil || gain > best.gain || (gain == best.gain && e.Depth < best.entry.Depth) {
			best = candidateCut{rep, gain}
		}
	})
	if best.entry != nil {
		ws.best[v] = best // prepare zeroed the memo, which reads as no decision
	}
	ws.decided[v] = true
}
