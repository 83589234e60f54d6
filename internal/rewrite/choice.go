package rewrite

import (
	"mighash/internal/db"
	"mighash/internal/extract"
	"mighash/internal/mig"
	"mighash/internal/obs"
)

// Choice-aware rewriting (Options.Extract). The greedy top-down pass
// commits the locally best cut of every node as it walks; here the one
// per-node evaluation (bestCut) additionally records, per live gate,
// every admissible (cut, candidate) pair — the database candidates
// include the alternative, strictly shallower implementations each class
// carries — and internal/extract selects one implementation per needed
// gate minimizing a global size or depth objective. Because a choice
// graph prices sharing (a dependency needed by two selected choices is
// paid once), the extraction can prefer a locally neutral replacement
// that a greedy walk would never take.
//
// The same evaluation memoizes the greedy decision ("the twin"), and the
// one commit walk (runTopDown) builds both the twin and the selected
// cover; the pass returns whichever scores better under the objective —
// so a choice-aware pass is never worse than its greedy counterpart on
// any input.

// choiceRec is one recorded (cut, candidate) pair of a node: implement
// the node by its replacement. cost is the candidate's effective gate
// price: its size minus the gates that already exist in the input graph
// outside the replaced cone (or simplify away on their leaf literals) —
// the commit's structural hashing merges those for free, which is
// precisely the sharing a greedy gain count cannot see.
type choiceRec struct {
	replacement
	cost int32
}

// prepareChoices sizes the per-node menu slots, keeping each slot's
// backing array across passes.
func (w *Workspace) prepareChoices(n int) {
	if cap(w.choices) < n {
		grown := make([][]choiceRec, n)
		copy(grown, w.choices)
		w.choices = grown
	}
	w.choices = w.choices[:n]
	for i := range w.choices {
		w.choices[i] = w.choices[i][:0]
	}
}

// effectiveCost prices cand's gates against the input graph: walking
// the entry bottom-up over its mapped leaf literals (the same mapping
// instantiate applies at commit), a gate that simplifies away or
// already exists as a node outside the replaced cone will be merged by
// structural hashing and costs nothing; only genuinely new gates — and
// every gate above the first unknown one, whose operands cannot be
// resolved — pay one gate each.
func (r *rewriter) effectiveCost(cand *db.Entry, tr transformRef, leaves []mig.ID, cone []mig.ID) int32 {
	k := cand.K()
	var sig [64]mig.Lit
	var known [64]bool
	if 1+k+cand.Size() > len(sig) {
		return int32(cand.Size())
	}
	sig[0], known[0] = mig.Const0, true
	for j := 0; j < k; j++ {
		var leaf mig.ID
		if p := tr.perm[j]; p < len(leaves) {
			leaf = leaves[p]
		}
		sig[1+j] = mig.MakeLit(leaf, tr.flip>>uint(j)&1 == 1)
		known[1+j] = true
	}
	cost := int32(0)
	for l, gate := range cand.Gates {
		ok := known[gate[0].ID()] && known[gate[1].ID()] && known[gate[2].ID()]
		if ok {
			at := func(x mig.Lit) mig.Lit { return sig[x.ID()].NotIf(x.Comp()) }
			if res, found := r.m.FindMaj(at(gate[0]), at(gate[1]), at(gate[2])); found {
				// A hit inside the cone is no discount: the replacement
				// frees those nodes, so rebuilding one pays full price.
				inCone := false
				if r.m.IsGate(res.ID()) {
					for _, w := range cone {
						if w == res.ID() {
							inCone = true
							break
						}
					}
				}
				if !inCone {
					sig[1+k+l], known[1+k+l] = res, true
					continue
				}
			}
		}
		cost++
	}
	return cost
}

// depDelays maps a candidate's per-input leaf depths onto cut-leaf
// positions: entry input j is driven by leaves[tr.perm[j]], so the
// choice's output trails leaf position tr.perm[j] by LeafDepth[j]
// gates. Unused inputs (and constant-padded positions) contribute 0.
func depDelays(cand *db.Entry, tr transformRef, nLeaves int) [extract.MaxDeps]int8 {
	var d [extract.MaxDeps]int8
	for j := 0; j < cand.K(); j++ {
		ld := cand.LeafDepth[j]
		if ld < 0 || tr.perm[j] >= nLeaves {
			continue
		}
		if p := tr.perm[j]; int8(ld) > d[p] {
			d[p] = int8(ld)
		}
	}
	return d
}

// sigKey identifies what a menu entry will build: the database
// implementation plus the exact leaf literal feeding each of its inputs.
// Two records with equal keys instantiate bit-identical gates (the
// commit's structural hashing folds them onto one copy), regardless of
// which node they implement or with which output phase — so they share a
// duplicate-cone signature in the choice graph and the extractor can
// pay for the implementation once.
type sigKey struct {
	entry *db.Entry
	lits  [5]uint32 // per entry input: leaf ID and phase (2*id | flip)
}

// hash mixes the key's leaf literals with what tells the entries over
// them apart (class, size and depth) — not with the entry's address, so
// the table needs no unsafe pointer arithmetic.
func (k *sigKey) hash() uint64 {
	e := k.entry
	h := e.Rep.Bits<<16 ^ uint64(len(e.Gates))<<8 ^ uint64(e.Depth)
	for _, l := range k.lits {
		h = (h ^ uint64(l)) * 0x9E3779B185EBCA87
	}
	return h ^ h>>32
}

// sigTable interns sigKeys to duplicate-cone IDs 1, 2, … in insertion
// order: an open-addressing table the workspace owns, emptied but kept
// between passes, so building a choice graph allocates nothing once the
// table has grown to the largest pass.
type sigTable struct {
	keys []sigKey
	ids  []int32 // 0 marks an empty slot
	n    int
}

// reset empties the table, keeping its storage.
func (t *sigTable) reset() {
	if t.ids == nil {
		t.keys, t.ids = make([]sigKey, 256), make([]int32, 256)
	}
	clear(t.ids)
	t.n = 0
}

// intern returns k's ID, assigning the next one when k is new. The table
// grows at 2/3 load.
func (t *sigTable) intern(k *sigKey) int32 {
	mask := uint64(len(t.ids) - 1)
	i := k.hash() & mask
	for ; t.ids[i] != 0; i = (i + 1) & mask {
		if t.keys[i] == *k {
			return t.ids[i]
		}
	}
	t.n++
	t.keys[i], t.ids[i] = *k, int32(t.n)
	if 3*t.n > 2*len(t.ids) {
		t.grow()
	}
	return int32(t.n)
}

func (t *sigTable) grow() {
	keys, ids := t.keys, t.ids
	t.keys, t.ids = make([]sigKey, 2*len(keys)), make([]int32, 2*len(ids))
	mask := uint64(len(t.ids) - 1)
	for j, id := range ids {
		if id == 0 {
			continue
		}
		i := keys[j].hash() & mask
		for t.ids[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i], t.ids[i] = keys[j], id
	}
}

// buildGraph assembles the recorded menus into a flat choice graph:
// per live gate, choice 0 keeps the node's original fanins (cost 1) and
// choices 1.. are its menu in recording order, so Selection.Pick maps
// back to ws.choices[v][pick-1]. The graph's arena is workspace-owned
// and reused across passes.
func (r *rewriter) buildGraph() *extract.Graph {
	m, ws := r.m, r.ws
	ws.sigs.reset()
	n := m.NumNodes()
	g := &ws.graph
	g.NumNodes = n
	if cap(g.Off) < n+1 {
		g.Off = make([]int32, 0, n+1)
	}
	g.Off = g.Off[:0]
	g.Off = append(g.Off, 0)
	g.Arena = g.Arena[:0]
	g.Outputs = g.Outputs[:0]
	for v := 0; v < n; v++ {
		id := mig.ID(v)
		if m.IsGate(id) && r.fo[v] > 0 {
			keep := extract.Choice{Cost: 1, Ref: -1}
			for _, ch := range m.Fanin(id) {
				d := ch.ID()
				dup := false
				for j := 0; j < int(keep.N); j++ {
					if keep.Deps[j] == d {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				keep.Deps[keep.N] = d
				keep.DepD[keep.N] = 1
				keep.N++
			}
			g.Arena = append(g.Arena, keep)
			for ri := range ws.choices[v] {
				rec := &ws.choices[v][ri]
				c := extract.Choice{
					Cost: rec.cost,
					Ref:  int32(ri),
					Sig:  ws.sigs.sigOf(rec),
					N:    uint8(len(rec.leaves)),
					DepD: depDelays(rec.entry, rec.tr, len(rec.leaves)),
				}
				copy(c.Deps[:], rec.leaves)
				g.Arena = append(g.Arena, c)
			}
		}
		g.Off = append(g.Off, int32(len(g.Arena)))
	}
	for _, o := range m.Outputs() {
		g.Outputs = append(g.Outputs, o.ID())
	}
	g.FFRRoot = r.ffr
	if g.FFRRoot == nil {
		// The whole-graph variants (T, TD) rewrite without regions, but
		// the extractor's exact tree-DP refinement still works per region.
		g.FFRRoot = m.FFRRoots()
	}
	return g
}

// sigOf interns rec's signature: the duplicate-cone ID shared by every
// record that instantiates the same entry over the same leaf literals
// (mirroring instantiate, entry input j reads leaves[tr.perm[j]] with
// flip bit j; positions past the cut read constant zero). IDs are
// assigned in recording order by the graph build.
func (t *sigTable) sigOf(rec *choiceRec) int32 {
	key := sigKey{entry: rec.entry}
	for j := 0; j < rec.entry.K(); j++ {
		var leaf mig.ID
		if p := rec.tr.perm[j]; p < len(rec.leaves) {
			leaf = rec.leaves[p]
		}
		key.lits[j] = uint32(leaf)<<1 | uint32(rec.tr.flip>>uint(j)&1)
	}
	return t.intern(&key)
}

// runChoice is the choice-aware counterpart of a greedy top-down pass:
// evaluate every live gate once (bestCut records the greedy decision and
// the menu), commit the greedy twin, select a cover of the menus, commit
// the selection, and keep whichever result scores better under the
// extraction objective.
func (r *rewriter) runChoice() {
	// The menus need the database's alternative candidates; deriving
	// them is Once-guarded and shared process-wide.
	r.d.EnsureAlts()
	r.ws.prepareChoices(r.m.NumNodes())
	r.evaluate()

	// Greedy twin: every live gate is decided, so the commit consumes the
	// memo without evaluating anything.
	r.commitGreedy()
	gRes := r.out.Compact()
	gRepl := r.replacements

	// Fresh output graph for the extraction commit.
	r.out = mig.New(r.m.NumPIs())
	r.levels = r.levels[:0]
	r.replacements = 0

	g := r.buildGraph()
	base := r.opt.Ctx
	xctx, xspan := obs.Start(base, "rewrite.extract")
	r.opt.Ctx = xctx
	obj := r.opt.ExtractObjective
	sel := extract.Select(g, extract.Options{Objective: obj})
	r.runTopDown(func(v mig.ID) *replacement {
		if p := sel.Pick[v]; p > 0 {
			return &r.ws.choices[v][p-1].replacement
		}
		return nil
	})
	xRes := r.out.Compact()
	r.opt.Ctx = base

	gSize, xSize := gRes.Size(), xRes.Size()
	r.choiceCount = sel.Stats.Choices
	if obj.Better(xSize, xRes.Depth(), gSize, gRes.Depth()) {
		r.done = xRes
		r.extractSaved = gSize - xSize
	} else {
		r.done = gRes
		r.replacements = gRepl
	}
	xspan.SetInt("choices", int64(sel.Stats.Choices))
	xspan.SetInt("covered", int64(sel.Stats.Covered))
	xspan.SetInt("saved_gates", int64(r.extractSaved))
	xspan.End()
}

// evaluate runs bestCut for every live gate in ascending ID order inside
// the rewrite.evaluate span, so the commit walks only consume memoized
// decisions and the extraction reads the recorded menus. r.opt.Ctx is
// swapped for the span's context so on-demand ladders parent under it.
func (r *rewriter) evaluate() {
	base := r.opt.Ctx
	ctx, span := obs.Start(base, "rewrite.evaluate")
	r.opt.Ctx = ctx
	defer func() {
		span.End()
		r.opt.Ctx = base
	}()
	for id := r.m.NumPIs() + 1; id < r.m.NumNodes(); id++ {
		if r.fo[id] > 0 { // dead gates are never visited by the commit walks
			r.bestCut(mig.ID(id))
		}
	}
}
