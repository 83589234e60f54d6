package rewrite

import "mighash/internal/mig"

// candidate is one entry of a node's candidate list in Algorithm 2: a
// signal in the output graph implementing the node, its dynamic-
// programming size (gates attributed to it inside the current fanout-free
// region) and its depth (actual level in the output graph). The fields
// are 32-bit because the workspace keeps every node's list for the life
// of a pipeline run.
type candidate struct {
	lit   mig.Lit
	size  int32
	depth int32
}

// candSpan locates a node's finished candidate list in the workspace's
// candidate arena.
type candSpan struct{ start, n int32 }

// runBottomUp implements Algorithm 2, applied per fanout-free region.
// Nodes are visited in topological order; each node accumulates a capped
// list of candidate implementations — its own gate over the children's
// candidates plus every admissible cut replaced by its minimum MIG, over
// combinations of the leaves' candidates. At a region root the best
// candidate is settled so that consuming regions see a single
// implementation with its cost already paid (otherwise tree-structured DP
// sums would double-count shared logic).
//
// A node's list is built in one reused scratch list and, once final, is
// appended to an arena that holds every node's list back to back. The
// arena, the per-node spans and the scratch belong to the workspace and
// are reused across passes, so once they have grown to the graph's size
// a pass allocates no candidate storage.
func (r *rewriter) runBottomUp() {
	n := r.m.NumNodes()
	if cap(r.ws.spans) < n {
		r.ws.spans = make([]candSpan, n)
	}
	r.ws.spans = r.ws.spans[:n]
	clear(r.ws.spans) // dead gates keep an empty list
	r.ws.cands = r.ws.cands[:0]
	r.settle(0, candidate{lit: mig.Const0})
	for i := 0; i < r.m.NumPIs(); i++ {
		r.settle(r.m.Input(i).ID(), candidate{lit: r.out.Input(i)})
	}
	for id := r.m.NumPIs() + 1; id < n; id++ {
		if r.fo[id] == 0 {
			continue // dead gate
		}
		v := mig.ID(id)
		list := r.ws.visit[:0]

		// Fallback: v's own majority gate over the children candidates.
		f := r.m.Fanin(v)
		r.eachCombo([]mig.ID{f[0].ID(), f[1].ID(), f[2].ID()}, func(sel []candidate) {
			lit := r.addMaj(
				sel[0].lit.NotIf(f[0].Comp()),
				sel[1].lit.NotIf(f[1].Comp()),
				sel[2].lit.NotIf(f[2].Comp()))
			size := sel[0].size + sel[1].size + sel[2].size + 1
			list = r.insert(list, candidate{lit: lit, size: size, depth: int32(r.level(lit))})
		})

		// Cut replacements (Algorithm 2 lines 5–10).
		r.eachCut(v, func(rep replacement, _ []mig.ID) {
			r.eachCombo(rep.leaves, func(sel []candidate) {
				var leafSigs [5]mig.Lit
				size := int32(rep.entry.Size())
				for j := range sel {
					leafSigs[j] = sel[j].lit
					size += sel[j].size
				}
				lit := r.instantiate(rep.entry, rep.tr, leafSigs[:len(sel)])
				r.replacements++
				list = r.insert(list, candidate{lit: lit, size: size, depth: int32(r.level(lit))})
			})
		})

		if r.ffr != nil && r.ffr[v] == v && len(list) > 0 {
			// Region root: settle on the best candidate. Consumers pay
			// nothing extra for it, mirroring the FFR partitioning.
			list = list[:1]
			list[0].size = 0
		}
		r.ws.visit = list
		r.settle(v, list...)
	}
	for _, o := range r.m.Outputs() {
		best := r.candidates(o.ID())
		if len(best) == 0 {
			panic("rewrite: no candidate for an output node")
		}
		r.out.AddOutput(best[0].lit.NotIf(o.Comp()))
	}
}

// settle appends v's final candidate list to the arena.
func (r *rewriter) settle(v mig.ID, list ...candidate) {
	r.ws.spans[v] = candSpan{start: int32(len(r.ws.cands)), n: int32(len(list))}
	r.ws.cands = append(r.ws.cands, list...)
}

// candidates returns the settled candidate list of node id.
func (r *rewriter) candidates(id mig.ID) []candidate {
	sp := r.ws.spans[id]
	return r.ws.cands[sp.start : sp.start+sp.n]
}

// eachCombo invokes fn on every combination of the nodes' candidates,
// each node contributing at most PerLeafCandidates entries. eachCombo
// mutates and reuses one workspace-owned selection slice; fn must not
// retain it.
func (r *rewriter) eachCombo(nodes []mig.ID, fn func(sel []candidate)) {
	k := len(nodes)
	if cap(r.ws.sel) < k {
		r.ws.sel = make([]candidate, k)
	}
	sel := r.ws.sel[:k]
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			fn(sel)
			return
		}
		list := r.candidates(nodes[i])
		limit := r.opt.PerLeafCandidates
		if limit > len(list) {
			limit = len(list)
		}
		for j := 0; j < limit; j++ {
			sel[i] = list[j]
			rec(i + 1)
		}
	}
	rec(0)
}

// insert adds c to the size-then-depth sorted candidate list, deduplicating
// by literal and capping at MaxCandidates.
func (r *rewriter) insert(list []candidate, c candidate) []candidate {
	for _, ex := range list {
		if ex.lit == c.lit {
			return list // the same signal is already a candidate
		}
	}
	pos := len(list)
	for pos > 0 && (c.size < list[pos-1].size ||
		(c.size == list[pos-1].size && c.depth < list[pos-1].depth)) {
		pos--
	}
	list = append(list, candidate{})
	copy(list[pos+1:], list[pos:])
	list[pos] = c
	if len(list) > r.opt.MaxCandidates {
		list = list[:r.opt.MaxCandidates]
	}
	return list
}
