package rewrite

import (
	"mighash/internal/mig"
	"mighash/internal/obs"
)

// runTopDown implements Algorithm 1 of the paper and is the one commit
// walk of every top-down pass. Starting from every output, opt(v) takes
// the replacement pick(v) names: if there is one, the internal nodes of
// the cone are skipped and optimization recurs on the cut leaves,
// otherwise it recurs on the fanins of v. Results are memoized, which is
// what makes the traversal well-defined on a DAG: a node shared by
// several outputs or cones is rebuilt exactly once.
//
// pick is the greedy decision of the node (decide) or, in choice mode,
// the menu entry the extraction selected. Either way it is fixed per
// node before the walk needs it, and the walk order is fixed, so the
// output graph is deterministic. The walk is an explicit-stack DFS, so
// graphs with arbitrarily long chains cannot overflow the goroutine
// stack.
func (r *rewriter) runTopDown(pick func(v mig.ID) *replacement) {
	ws := r.ws
	res, known := ws.res, ws.known
	clear(known)
	res[0], known[0] = mig.Const0, true
	for i := 0; i < r.m.NumPIs(); i++ {
		id := r.m.Input(i).ID()
		res[id], known[id] = r.out.Input(i), true
	}
	// A node is examined once to push its unresolved dependencies — the
	// replacement's leaves if it has one, the fanins otherwise — and
	// resolved when all of them are known. Dependencies always have
	// smaller IDs than the node, so the walk strictly descends and
	// terminates. Dependencies are pushed in reverse so they resolve left
	// to right, matching the recursive formulation.
	stack := ws.stack[:0]
	for _, o := range r.m.Outputs() {
		if !known[o.ID()] {
			stack = append(stack, o.ID())
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if known[v] {
				stack = stack[:len(stack)-1]
				continue
			}
			ready := true
			if rep := pick(v); rep != nil {
				leaves := rep.leaves()
				for i := len(leaves) - 1; i >= 0; i-- {
					if !known[leaves[i]] {
						stack = append(stack, leaves[i])
						ready = false
					}
				}
				if !ready {
					continue
				}
				var leafSigs [5]mig.Lit
				for i, lf := range leaves {
					leafSigs[i] = res[lf]
				}
				res[v] = r.instantiate(rep.entry, rep.tr, leafSigs[:len(leaves)])
				r.replacements++
			} else {
				f := r.m.Fanin(v)
				for i := 2; i >= 0; i-- {
					if !known[f[i].ID()] {
						stack = append(stack, f[i].ID())
						ready = false
					}
				}
				if !ready {
					continue
				}
				res[v] = r.out.Maj(
					res[f[0].ID()].NotIf(f[0].Comp()),
					res[f[1].ID()].NotIf(f[1].Comp()),
					res[f[2].ID()].NotIf(f[2].Comp()))
			}
			known[v] = true
			stack = stack[:len(stack)-1]
		}
		r.out.AddOutput(res[o.ID()].NotIf(o.Comp()))
	}
	ws.stack = stack[:0]
}

// commitGreedy runs the commit walk over the greedy decisions inside the
// rewrite.commit span. r.opt.Ctx is swapped for the span's context so
// on-demand ladder spans started inside Exact5.Lookup parent under it: a
// greedy pass evaluates every node lazily from the walk, so that is
// where its time actually goes.
func (r *rewriter) commitGreedy() {
	base := r.opt.Ctx
	cctx, cspan := obs.Start(base, "rewrite.commit")
	r.opt.Ctx = cctx
	defer func() {
		cspan.SetInt("replacements", int64(r.replacements))
		cspan.End()
		r.opt.Ctx = base
	}()
	r.runTopDown(r.decide)
}

// decide is the greedy pick: v's bestCut decision, evaluated on first
// visit unless a choice-aware pass already memoized it.
func (r *rewriter) decide(v mig.ID) *replacement {
	if !r.ws.decided[v] {
		r.bestCut(v)
	}
	if best := &r.ws.best[v]; best.entry != nil {
		return &best.replacement
	}
	return nil
}
