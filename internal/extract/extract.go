// Package extract selects a globally best cover from a choice graph.
//
// The choice-aware rewriter (internal/rewrite with Options.Extract) does
// not commit replacements greedily; it records, per live gate, a menu of
// ways to implement that gate — keeping its original fanins, or
// instantiating one of the database candidates of one of its admissible
// cuts — and hands the menu to this package. Select then picks one
// choice per gate actually needed, minimizing a size or depth objective
// over the whole graph rather than cut by cut. This is the e-graph
// extraction problem specialized to the rewriter's setting: the classes
// are the gates of the input MIG, the enodes are the recorded (cut,
// candidate) pairs, and acyclicity is structural (every dependency has a
// strictly smaller node ID).
//
// Exact extraction over a DAG is NP-hard, so Select layers three
// deterministic passes: tree-cost estimates, a marginal-cost cover that
// prices already-needed dependencies at zero (the DAG-sharing baseline,
// iterated a few rounds against its own demand set), and an exact
// tree-DP over small fanout-free regions — where the choice graph is an
// in-tree and dynamic programming is optimal under fixed external
// prices. Every pass is a pure function of the graph, so the selection
// is bit-identical across runs and worker counts.
//
// Objective is the repository's one (size, depth) ranking: besides
// steering Select, Objective.Better decides whether a choice-aware pass
// keeps its extracted cover or its greedy twin, and whether a pipeline
// round (internal/engine, Pipeline.Objective) improved on the best graph
// so far.
package extract

import (
	"cmp"
	"slices"

	"mighash/internal/mig"
)

// Objective selects what Select minimizes.
type Objective int

const (
	// Size minimizes the number of selected gates, breaking ties toward
	// lower output arrival. The default.
	Size Objective = iota
	// Depth minimizes the output arrival time, breaking ties toward
	// fewer gates. Arrival minimization is exact: the per-node optimal
	// arrivals are simultaneously achievable (an induction over the
	// topological order), so the cover realizes them.
	Depth
)

func (o Objective) String() string {
	if o == Depth {
		return "depth"
	}
	return "size"
}

// Better reports whether cost (aSize, aDepth) strictly beats (bSize,
// bDepth) under o: lexicographically by size then depth, or by depth
// then size under Depth.
func (o Objective) Better(aSize, aDepth, bSize, bDepth int) bool {
	if o == Depth {
		return aDepth < bDepth || (aDepth == bDepth && aSize < bSize)
	}
	return aSize < bSize || (aSize == bSize && aDepth < bDepth)
}

// MaxDeps is the maximum dependencies a choice may carry: five cut
// leaves, or the three fanins of a kept gate.
const MaxDeps = 5

// Choice is one way to implement a node: pay Cost gates and require the
// first N entries of Deps to be implemented first. DepD[i] is the gate
// count of the longest path from the choice's output down to Deps[i]
// inside the choice's own structure, so a cover's arrival times fall out
// of the selection without consulting the original graph.
//
// Sig, when positive, is a duplicate-cone signature: choices with equal
// Sig build bit-identical structure (the same implementation over the
// same dependency literals), so a cover that selects two of them pays
// Cost once — the second instance merges into the first. This is where
// functional hashing beats a greedy walk: two structurally different
// cones computing NPN-equivalent functions over the same leaves look
// unrelated to structural hashing, but their menus share a signature,
// and the selector can fold both onto one implementation. Zero means
// the choice has no cross-node identity.
type Choice struct {
	Cost int32
	Ref  int32 // caller payload, returned through Selection.Pick indices
	Sig  int32
	N    uint8
	Deps [MaxDeps]mig.ID
	DepD [MaxDeps]int8
}

// Graph is a choice graph in flat arena form. Node v's choices are
// Arena[Off[v]:Off[v+1]]; nodes without choices (terminals — constants
// and inputs — plus dead gates) have an empty range. Every dependency of
// every choice must have a strictly smaller node ID than its owner, and
// every node reachable from Outputs through any combination of choices
// must either carry at least one choice or be a terminal.
type Graph struct {
	NumNodes int
	Off      []int32  // len NumNodes+1, ascending
	Arena    []Choice // all choices, grouped by node
	Outputs  []mig.ID // demand roots (duplicates are fine)
	// FFRRoot, when non-nil, maps every node to the root of its
	// fanout-free region in the original graph (roots map to
	// themselves). It enables the exact tree-DP refinement; nil skips
	// that pass.
	FFRRoot []mig.ID
}

// Choices returns node v's menu (aliases the arena).
func (g *Graph) Choices(v mig.ID) []Choice { return g.Arena[g.Off[v]:g.Off[v+1]] }

func (g *Graph) hasChoices(v mig.ID) bool { return g.Off[v] < g.Off[v+1] }

// Options tunes Select.
type Options struct {
	// Objective selects the size or depth objective (default Size).
	Objective Objective
	// Rounds iterates the marginal-cost cover against the previous
	// round's demand set (default 2; the best-scoring round wins).
	Rounds int
	// ExactFFRLimit caps the fanout-free-region size the exact tree-DP
	// refinement attempts, in choice-bearing nodes (0 selects the
	// default of 48; negative disables the pass).
	ExactFFRLimit int
}

func (o Options) withDefaults() Options {
	if o.Rounds <= 0 {
		o.Rounds = 2
	}
	if o.ExactFFRLimit == 0 {
		o.ExactFFRLimit = 48
	}
	if o.ExactFFRLimit < 0 {
		o.ExactFFRLimit = 0
	}
	return o
}

// Stats reports one extraction.
type Stats struct {
	Choices      int   // choices offered across all nodes
	Covered      int   // nodes the selected cover implements
	Replacements int   // covered nodes implemented by a database candidate
	Merged       int   // selected choices folded onto an equal-signature twin
	Gates        int64 // modelled gate count of the cover
	Arrival      int32 // modelled output arrival of the cover
	ExactRegions int   // fanout-free regions refined by the tree-DP
	ExactWins    int   // DP batches that beat the marginal cover
}

// Selection is Select's result: Pick[v] indexes node v's menu (as
// returned by Graph.Choices), or -1 when v is not needed by the cover
// (or is a terminal).
type Selection struct {
	Pick  []int32
	Stats Stats
}

// selector carries one Select invocation's scratch state.
type selector struct {
	g        *Graph
	opt      Options
	est      []int64 // tree-cost estimate per node (sharing ignored)
	arr      []int32 // optimal achievable arrival per node
	sigCount []int32 // offered choices per signature (index 0 unused)
}

// Select picks a cover of g under opt. It is deterministic: the same
// graph and options always yield the same selection.
func Select(g *Graph, opt Options) Selection {
	opt = opt.withDefaults()
	s := &selector{g: g, opt: opt}
	maxSig := int32(0)
	for i := range g.Arena {
		if sg := g.Arena[i].Sig; sg > maxSig {
			maxSig = sg
		}
	}
	s.sigCount = make([]int32, maxSig+1)
	for i := range g.Arena {
		if sg := g.Arena[i].Sig; sg > 0 {
			s.sigCount[sg]++
		}
	}
	s.estimate()

	pick, need := s.cover(nil)
	gates, arrival := s.score(pick, need)
	best, bestNeed := pick, need
	bestGates, bestArr := gates, arrival
	for round := 1; round < opt.Rounds; round++ {
		pick, need = s.cover(bestNeed)
		gates, arrival = s.score(pick, need)
		if !opt.Objective.Better(int(gates), int(arrival), int(bestGates), int(bestArr)) {
			break
		}
		best, bestNeed, bestGates, bestArr = pick, need, gates, arrival
	}

	st := Stats{Gates: bestGates, Arrival: bestArr}
	for v := 0; v < g.NumNodes; v++ {
		st.Choices += int(g.Off[v+1] - g.Off[v])
	}
	if g.FFRRoot != nil && opt.ExactFFRLimit > 0 {
		if dp, dpNeed, regions := s.refineFFR(best, bestNeed); regions > 0 {
			st.ExactRegions = regions
			if dpGates, dpArr := s.score(dp, dpNeed); opt.Objective.Better(int(dpGates), int(dpArr), int(bestGates), int(bestArr)) {
				best, bestGates, bestArr = dp, dpGates, dpArr
				st.ExactWins++
				st.Gates, st.Arrival = bestGates, bestArr
			}
		}
	}
	_, need = s.needOf(best)
	sigSeen := make([]bool, len(s.sigCount))
	for v := 0; v < g.NumNodes; v++ {
		if need[v] && g.hasChoices(mig.ID(v)) {
			st.Covered++
			c := &g.Arena[g.Off[v]+best[v]]
			if c.Ref >= 0 {
				st.Replacements++
			}
			if c.Sig > 0 {
				if sigSeen[c.Sig] {
					st.Merged++
				}
				sigSeen[c.Sig] = true
			}
		} else {
			best[v] = -1
		}
	}
	return Selection{Pick: best, Stats: st}
}

// estimate fills est (tree cost, sharing ignored — an admissible
// optimistic price for not-yet-needed dependencies) and arr (optimal
// achievable arrival) bottom-up.
func (s *selector) estimate() {
	g := s.g
	s.est = make([]int64, g.NumNodes)
	s.arr = make([]int32, g.NumNodes)
	for v := 0; v < g.NumNodes; v++ {
		choices := g.Choices(mig.ID(v))
		if len(choices) == 0 {
			continue // terminal: free, arrival 0
		}
		bestE := int64(1) << 60
		bestA := int32(1) << 30
		for i := range choices {
			c := &choices[i]
			e := int64(c.Cost)
			a := int32(0)
			for j := 0; j < int(c.N); j++ {
				d := c.Deps[j]
				e += s.est[d]
				if da := s.arr[d] + int32(c.DepD[j]); da > a {
					a = da
				}
			}
			if e < bestE {
				bestE = e
			}
			if a < bestA {
				bestA = a
			}
		}
		s.est[v], s.arr[v] = bestE, bestA
	}
}

// cover runs one marginal-cost sweep in descending node order: every
// choice-bearing node gets the pick minimizing the objective key at its
// turn, pricing dependencies already demanded — in this sweep, or in
// the previous round's cover when prevNeed is non-nil — at zero.
// Dependencies always have smaller IDs, so by the time a node is
// visited every demand on it from the cover above is known; only needed
// nodes propagate demand, but un-needed nodes are assigned a pick too,
// so a later refinement that redirects demand onto them finds a valid
// implementation.
func (s *selector) cover(prevNeed []bool) (pick []int32, need []bool) {
	g := s.g
	pick = make([]int32, g.NumNodes)
	need = make([]bool, g.NumNodes)
	sigTaken := make([]bool, len(s.sigCount))
	for i := range pick {
		pick[i] = -1
	}
	for _, o := range g.Outputs {
		need[o] = true
	}
	for v := g.NumNodes - 1; v >= 0; v-- {
		if !g.hasChoices(mig.ID(v)) {
			continue
		}
		choices := g.Choices(mig.ID(v))
		bestI := int32(0)
		bestM := int64(1) << 60
		bestA := int32(1) << 30
		bestC := int32(1 << 30)
		for i := range choices {
			c := &choices[i]
			marg := int64(c.Cost)
			// Duplicate-cone pricing: an implementation already selected
			// elsewhere merges structurally, so a second instance is free;
			// one still unselected but offered at n nodes is amortized
			// optimistically (the twin comparison and the round re-score
			// keep optimism safe).
			if c.Sig > 0 {
				if sigTaken[c.Sig] {
					marg = 0
				} else if n := int64(s.sigCount[c.Sig]); n > 1 {
					marg = (marg + n - 1) / n
				}
			}
			a := int32(0)
			for j := 0; j < int(c.N); j++ {
				d := c.Deps[j]
				if g.hasChoices(d) && !need[d] && (prevNeed == nil || !prevNeed[d]) {
					marg += s.est[d]
				}
				if da := s.arr[d] + int32(c.DepD[j]); da > a {
					a = da
				}
			}
			// At equal primary key, prefer the lower direct Cost before
			// comparing arrivals: est-priced dependencies can still become
			// free through sharing with consumers not yet swept, while a
			// choice's own Cost is locked in.
			var take bool
			if s.opt.Objective == Depth {
				take = a < bestA || (a == bestA && (marg < bestM || (marg == bestM && c.Cost < bestC)))
			} else {
				take = marg < bestM || (marg == bestM && (c.Cost < bestC || (c.Cost == bestC && a < bestA)))
			}
			if take {
				bestI, bestM, bestA, bestC = int32(i), marg, a, c.Cost
			}
		}
		pick[v] = bestI
		if need[v] {
			c := &choices[bestI]
			if c.Sig > 0 {
				sigTaken[c.Sig] = true
			}
			for j := 0; j < int(c.N); j++ {
				need[c.Deps[j]] = true
			}
		}
	}
	return pick, need
}

// refineFFR runs the exact tree-DP over small fanout-free regions and
// returns a refined copy of pick, its demand set, and how many regions
// were attempted. Inside one region the choice graph is an in-tree —
// internal nodes feed exactly one consumer — so the subtree costs of a
// choice's dependencies are disjoint and bottom-up DP is exact under
// the external prices (needed elsewhere: zero; not needed: the tree
// estimate). Externally demanded internal nodes keep their cover pick
// (their cost is sunk either way) and are priced zero. The refinement
// is adopted by the caller only when the full re-score beats the cover,
// so an external price that shifted under it can never regress the
// result.
func (s *selector) refineFFR(pick []int32, need []bool) ([]int32, []bool, int) {
	g := s.g
	// extDemand: demanded from outside the node's own region (an output,
	// or a needed node of another region referencing it).
	ext := make([]bool, g.NumNodes)
	for _, o := range g.Outputs {
		ext[o] = true
	}
	// adopters[sig] counts needed cover picks carrying each signature, so
	// the DP can price an implementation some *other* node already pays
	// for at zero.
	adopters := make([]int32, len(s.sigCount))
	for v := 0; v < g.NumNodes; v++ {
		if !need[v] || !g.hasChoices(mig.ID(v)) || pick[v] < 0 {
			continue
		}
		c := &g.Arena[g.Off[v]+pick[v]]
		if c.Sig > 0 {
			adopters[c.Sig]++
		}
		for j := 0; j < int(c.N); j++ {
			if d := c.Deps[j]; g.FFRRoot[d] != g.FFRRoot[v] {
				ext[d] = true
			}
		}
	}
	perm := make([]int32, 0, g.NumNodes)
	for v := 0; v < g.NumNodes; v++ {
		if g.hasChoices(mig.ID(v)) {
			perm = append(perm, int32(v))
		}
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := cmp.Compare(g.FFRRoot[a], g.FFRRoot[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	out := slices.Clone(pick)
	dpCost := make([]int64, g.NumNodes)
	dpArr := make([]int32, g.NumNodes)
	dpPick := make([]int32, g.NumNodes)
	inRegion := make([]int32, g.NumNodes)
	serial := int32(0)
	regions := 0
	for a := 0; a < len(perm); {
		b := a
		for b < len(perm) && g.FFRRoot[perm[b]] == g.FFRRoot[perm[a]] {
			b++
		}
		nodes := perm[a:b]
		a = b
		root := nodes[len(nodes)-1] // the region root has the largest ID
		if len(nodes) < 2 || len(nodes) > s.opt.ExactFFRLimit || !need[root] {
			continue
		}
		regions++
		serial++
		for _, v := range nodes {
			inRegion[v] = serial
		}
		for _, vi := range nodes {
			if ext[vi] && vi != root {
				// Implementation fixed by the cover; consumers inside the
				// region see it as already paid.
				dpCost[vi], dpArr[vi], dpPick[vi] = 0, s.arr[vi], out[vi]
				continue
			}
			choices := g.Choices(mig.ID(vi))
			bestI := int32(0)
			bestC := int64(1) << 60
			bestA := int32(1) << 30
			bestD := int32(1 << 30)
			for i := range choices {
				c := &choices[i]
				cost := int64(c.Cost)
				if c.Sig > 0 {
					others := adopters[c.Sig]
					if need[vi] && out[vi] >= 0 && g.Arena[g.Off[vi]+out[vi]].Sig == c.Sig {
						others-- // vi's own cover pick must not subsidize itself
					}
					if others > 0 {
						cost = 0
					}
				}
				arr := int32(0)
				for j := 0; j < int(c.N); j++ {
					d := c.Deps[j]
					da := s.arr[d]
					switch {
					case inRegion[d] == serial && !ext[d]:
						cost += dpCost[d]
						da = dpArr[d]
					case need[d] || !g.hasChoices(d):
						// already paid, or a terminal: free
					default:
						cost += s.est[d]
					}
					if da += int32(c.DepD[j]); da > arr {
						arr = da
					}
				}
				// Same tie-break order as cover, so the passes agree on
				// equal-cost menus.
				var take bool
				if s.opt.Objective == Depth {
					take = arr < bestA || (arr == bestA && (cost < bestC || (cost == bestC && c.Cost < bestD)))
				} else {
					take = cost < bestC || (cost == bestC && (c.Cost < bestD || (c.Cost == bestD && arr < bestA)))
				}
				if take {
					bestI, bestC, bestA, bestD = int32(i), cost, arr, c.Cost
				}
			}
			dpCost[vi], dpArr[vi], dpPick[vi] = bestC, bestA, bestI
		}
		for _, vi := range nodes {
			if !(ext[vi] && vi != root) {
				out[vi] = dpPick[vi]
			}
		}
	}
	if regions == 0 {
		return out, need, 0
	}
	_, outNeed := s.needOf(out)
	return out, outNeed, regions
}

// needOf recomputes the true demand set of a pick vector (descending
// sweep from the outputs). It returns the covered-node count alongside.
func (s *selector) needOf(pick []int32) (int, []bool) {
	g := s.g
	need := make([]bool, g.NumNodes)
	for _, o := range g.Outputs {
		need[o] = true
	}
	covered := 0
	for v := g.NumNodes - 1; v >= 0; v-- {
		if !need[v] || !g.hasChoices(mig.ID(v)) {
			continue
		}
		covered++
		p := pick[v]
		if p < 0 {
			p = 0 // default to the first choice if the pick never ran
		}
		c := &g.Arena[g.Off[v]+p]
		for j := 0; j < int(c.N); j++ {
			need[c.Deps[j]] = true
		}
	}
	return covered, need
}

// score computes the modelled cost of a pick vector: total gates of the
// true demand set and the realized output arrival. Equal-signature picks
// are priced once — the commit's structural hashing folds the second
// instance onto the first, so the model follows.
func (s *selector) score(pick []int32, need []bool) (gates int64, arrival int32) {
	g := s.g
	level := make([]int32, g.NumNodes)
	sigSeen := make([]bool, len(s.sigCount))
	for v := 0; v < g.NumNodes; v++ {
		if !need[v] || !g.hasChoices(mig.ID(v)) {
			continue
		}
		p := pick[v]
		if p < 0 {
			p = 0
		}
		c := &g.Arena[g.Off[v]+p]
		if c.Sig > 0 && sigSeen[c.Sig] {
			// merged: already built by an earlier equal-signature pick
		} else {
			gates += int64(c.Cost)
			if c.Sig > 0 {
				sigSeen[c.Sig] = true
			}
		}
		a := int32(0)
		for j := 0; j < int(c.N); j++ {
			if da := level[c.Deps[j]] + int32(c.DepD[j]); da > a {
				a = da
			}
		}
		level[v] = a
	}
	for _, o := range g.Outputs {
		if level[o] > arrival {
			arrival = level[o]
		}
	}
	return gates, arrival
}
