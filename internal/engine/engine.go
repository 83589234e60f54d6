package engine

import (
	"context"
	"fmt"
	"time"

	"mighash/internal/db"
	"mighash/internal/depthopt"
	"mighash/internal/mig"
	"mighash/internal/rewrite"
)

// PassStats reports one executed pass of a pipeline run.
type PassStats struct {
	Name        string `json:"name"`
	Iteration   int    `json:"iteration"` // 1-based script round
	SizeBefore  int    `json:"size_before"`
	SizeAfter   int    `json:"size_after"`
	DepthBefore int    `json:"depth_before"`
	DepthAfter  int    `json:"depth_after"`
	// Replacements counts database substitutions (rewrite passes) or
	// accepted reassociations (depth passes).
	Replacements int `json:"replacements"`
	// 4-input lookups of this pass answered by, and added to, the run's
	// lookup memos (rewrite.Stats); zero for non-rewrite passes.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// Choice-aware extraction of this pass (zero unless the pass ran
	// with rewrite.Options.Extract): recorded choices, and the gates the
	// extracted cover saved over the pass's greedy twin.
	Choices      int           `json:"choices,omitempty"`
	ExtractSaved int           `json:"extract_saved,omitempty"`
	Elapsed      time.Duration `json:"elapsed_ns"`
}

func (s PassStats) String() string {
	out := fmt.Sprintf("%s[%d]: size %d→%d, depth %d→%d",
		s.Name, s.Iteration, s.SizeBefore, s.SizeAfter, s.DepthBefore, s.DepthAfter)
	if s.CacheHits+s.CacheMisses > 0 {
		out += fmt.Sprintf(", cache %d/%d", s.CacheHits, s.CacheHits+s.CacheMisses)
	}
	return out
}

// passEnv is the shared context a pass executes in: the database of the
// whole run, the on-demand 5-input store feeding the K = 5 passes, the
// run's context (cancelling in-flight exact synthesis) and the rewrite
// workspace reused across all passes and iterations of one pipeline run
// (each RunContext owns a private one, so concurrent batch workers never
// share scratch, and its lookup memo lives as long as the run).
type passEnv struct {
	ctx    context.Context
	d      *db.DB
	exact5 *db.OnDemand
	ws     *rewrite.Workspace
}

// Pass is one named transformation step of a pipeline. The zero value is
// invalid; construct passes with RewritePass, DepthPass or PassByName.
type Pass struct {
	name string
	run  func(m *mig.MIG, env passEnv) (*mig.MIG, PassStats)
}

// Name returns the script name of the pass ("BF", "depthopt", …).
func (p Pass) Name() string { return p.name }

// RewritePass wraps one functional-hashing configuration. The pass name
// is rewrite.VariantName(opt) ("TF", "TF5", "TFx", …); opt.Exact5,
// opt.Ctx and opt.Workspace are overridden by the pipeline's
// environment.
func RewritePass(opt rewrite.Options) Pass {
	name := rewrite.VariantName(opt)
	return Pass{
		name: name,
		run: func(m *mig.MIG, env passEnv) (*mig.MIG, PassStats) {
			// Copy the captured options: concurrent batch workers share
			// this Pass, so the closure state must stay read-only.
			o := opt
			o.Exact5 = env.exact5
			o.Ctx = env.ctx
			o.Workspace = env.ws
			res, st := rewrite.Run(m, env.d, o)
			return res, PassStats{
				Name:       st.Variant,
				SizeBefore: st.SizeBefore, SizeAfter: st.SizeAfter,
				DepthBefore: st.DepthBefore, DepthAfter: st.DepthAfter,
				Replacements: st.Replacements,
				CacheHits:    st.CacheHits,
				CacheMisses:  st.CacheMisses,
				Choices:      st.Choices,
				ExtractSaved: st.ExtractSaved,
				Elapsed:      st.Elapsed,
			}
		},
	}
}

// DepthPass wraps the algebraic depth optimizer.
func DepthPass(opt depthopt.Options) Pass {
	return Pass{
		name: "depthopt",
		run: func(m *mig.MIG, env passEnv) (*mig.MIG, PassStats) {
			res, st := depthopt.Optimize(m, opt)
			return res, PassStats{
				Name:       "depthopt",
				SizeBefore: st.SizeBefore, SizeAfter: st.SizeAfter,
				DepthBefore: st.DepthBefore, DepthAfter: st.DepthAfter,
				Replacements: st.Passes,
				Elapsed:      st.Elapsed,
			}
		},
	}
}

// PassByName resolves the script name of a pass: "depthopt" (the depth
// optimizer with its default production tuning) or any name of the
// rewrite pass grammar (rewrite.ParseVariant): the paper's five variants
// "TF", "T", "TFD", "TD", "BF", and the top-down ones suffixed with "5"
// (five-leaf cuts resolved through the on-demand exact-synthesis store)
// and/or "x" or "xd" (choice-aware extraction under the size or depth
// objective), such as "TF5", "TFDx" or "TF5xd".
func PassByName(name string) (Pass, bool) {
	if name == "depthopt" {
		return DepthPass(depthopt.Options{SizeFactor: 1.2, MaxPasses: 10}), true
	}
	opt, ok := rewrite.ParseVariant(name)
	if !ok {
		return Pass{}, false
	}
	return RewritePass(opt), true
}
