package rewrite

import "mighash/internal/mig"

// candidate is one entry of a node's candidate list in Algorithm 2: a
// signal in the output graph implementing the node, its dynamic-
// programming size (gates attributed to it inside the current fanout-free
// region) and its depth (actual level in the output graph).
type candidate struct {
	lit   mig.Lit
	size  int
	depth int
}

// runBottomUp implements Algorithm 2, applied per fanout-free region.
// Nodes are visited in topological order; each node accumulates a capped
// list of candidate implementations — its own gate over the children's
// candidates plus every admissible cut replaced by its minimum MIG, over
// combinations of the leaves' candidates. At a region root the best
// candidate is settled so that consuming regions see a single
// implementation with its cost already paid (otherwise tree-structured DP
// sums would double-count shared logic).
func (r *rewriter) runBottomUp() {
	n := r.m.NumNodes()
	st := &r.ws.eval[0]
	cands := make([][]candidate, n)
	cands[0] = []candidate{{lit: mig.Const0}}
	for i := 0; i < r.m.NumPIs(); i++ {
		cands[r.m.Input(i).ID()] = []candidate{{lit: r.out.Input(i)}}
	}
	for id := r.m.NumPIs() + 1; id < n; id++ {
		if r.fo[id] == 0 {
			continue // dead gate
		}
		v := mig.ID(id)
		var list []candidate

		// Fallback: v's own majority gate over the children candidates.
		f := r.m.Fanin(v)
		r.eachCombo([]mig.ID{f[0].ID(), f[1].ID(), f[2].ID()}, cands, func(sel []candidate) {
			lit := r.addMaj(
				sel[0].lit.NotIf(f[0].Comp()),
				sel[1].lit.NotIf(f[1].Comp()),
				sel[2].lit.NotIf(f[2].Comp()))
			size := sel[0].size + sel[1].size + sel[2].size + 1
			list = r.insert(list, candidate{lit: lit, size: size, depth: r.level(lit)})
		})

		// Cut replacements (Algorithm 2 lines 5–10).
		r.eachCut(v, st, func(rep replacement, _ []mig.ID) {
			r.eachCombo(rep.leaves, cands, func(sel []candidate) {
				var leafSigs [5]mig.Lit
				size := rep.entry.Size()
				for j := range sel {
					leafSigs[j] = sel[j].lit
					size += sel[j].size
				}
				lit := r.instantiate(rep.entry, rep.tr, leafSigs[:len(sel)])
				r.replacements++
				list = r.insert(list, candidate{lit: lit, size: size, depth: r.level(lit)})
			})
		})

		if r.ffr != nil && r.ffr[v] == v && len(list) > 0 {
			// Region root: settle on the best candidate. Consumers pay
			// nothing extra for it, mirroring the FFR partitioning.
			list = []candidate{{lit: list[0].lit, size: 0, depth: list[0].depth}}
		}
		cands[v] = list
	}
	for _, o := range r.m.Outputs() {
		best := cands[o.ID()]
		if len(best) == 0 {
			panic("rewrite: no candidate for an output node")
		}
		r.out.AddOutput(best[0].lit.NotIf(o.Comp()))
	}
}

// eachCombo invokes fn on every combination of the nodes' candidates,
// each node contributing at most PerLeafCandidates entries. eachCombo
// mutates and reuses one workspace-owned selection slice; fn must not
// retain it.
func (r *rewriter) eachCombo(nodes []mig.ID, cands [][]candidate, fn func(sel []candidate)) {
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
		list := cands[nodes[i]]
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
