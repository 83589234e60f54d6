package rewrite

import (
	"cmp"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"mighash/internal/fault"
	"mighash/internal/mig"
	"mighash/internal/obs"
)

// evaluateAll runs bestCut for every live gate on a bounded worker pool,
// inside the rewrite.evaluate span, so the commit walk only consumes
// memoized decisions (and, in choice mode, the extraction reads the
// recorded menus). Work is partitioned by fanout-free region: the cones
// of the nodes of one region overlap heavily, so handing a whole region
// to one worker keeps its epoch-stamped scratch arrays and the relevant
// graph segments cache-warm, and regions are independent — no two
// workers ever analyze the same cone.
//
// During this phase the rewriter's state is strictly read-only; each
// worker writes only its own evalState and the per-node memo slots of
// the nodes it claimed, so the phase is race-free and — because bestCut
// is a pure per-node function — deterministic. r.opt.Ctx is swapped for
// the span's context so on-demand ladders parent under it.
func (r *rewriter) evaluateAll(workers int) {
	base := r.opt.Ctx
	ctx, span := obs.Start(base, "rewrite.evaluate")
	span.SetInt("workers", int64(workers))
	r.opt.Ctx = ctx
	defer func() {
		span.End()
		r.opt.Ctx = base
	}()
	ws := r.ws
	roots := r.ffr
	if roots == nil {
		// The whole-graph variants (T, TD) have no region restriction,
		// but the FFR structure still yields the scheduling partition.
		roots = r.m.FFRRoots()
	}
	r.roots = roots
	perm := ws.perm[:0]
	for id := r.m.NumPIs() + 1; id < r.m.NumNodes(); id++ {
		if r.fo[id] > 0 { // dead gates are never visited by the commit phase
			perm = append(perm, mig.ID(id))
		}
	}
	slices.SortFunc(perm, func(a, b mig.ID) int {
		if c := cmp.Compare(roots[a], roots[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	starts := ws.starts[:0]
	for i := range perm {
		if i == 0 || roots[perm[i]] != roots[perm[i-1]] {
			starts = append(starts, int32(i))
		}
	}
	starts = append(starts, int32(len(perm)))
	ws.perm, ws.starts = perm, starts

	regions := len(starts) - 1
	if workers > regions {
		workers = regions
	}
	if workers <= 1 {
		st := &ws.eval[0]
		for _, v := range perm {
			r.bestCut(v, st)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	// recover only catches same-goroutine panics, so a worker unwinding
	// here would kill the process no matter what the engine's job-level
	// boundary does. Capture the first panic (value and stack) and re-raise
	// it on the coordinating goroutine after every worker has parked, where
	// the caller's recover can turn it into a per-job error.
	var (
		panicOnce  sync.Once
		panicVal   any
		panicStack []byte
	)
	for w := 0; w < workers; w++ {
		st := &ws.eval[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					panicOnce.Do(func() { panicVal, panicStack = rec, debug.Stack() })
				}
			}()
			for {
				k := int(next.Add(1)) - 1
				if k >= regions {
					return
				}
				// Failpoint "rewrite/ffr-region": chaos inside a worker
				// goroutine, one eligible hit per claimed region — the only
				// way to prove the cross-goroutine re-raise above.
				if err := fault.Hit("rewrite/ffr-region"); err != nil {
					panic(err)
				}
				for _, v := range perm[starts[k]:starts[k+1]] {
					r.bestCut(v, st)
				}
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(fmt.Sprintf("rewrite: evaluation worker panicked: %v\n%s", panicVal, panicStack))
	}
}
