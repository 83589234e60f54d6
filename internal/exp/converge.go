package exp

import (
	"fmt"
	"strings"

	"mighash/internal/db"
	"mighash/internal/engine"
	"mighash/internal/rewrite"
)

// ConvergeRow records one iteration of repeated functional hashing.
type ConvergeRow struct {
	Pass        int
	Size, Depth int
	CacheHits   int // lookup memo hits of the pass (memo shared across passes)
}

// Converge implements the closing remark of the paper's Sec. V: "In all
// experiments, we have performed the functional hashing algorithm only
// once. Running it several times … will likely lead to further
// improvements." It drives a single-pass engine pipeline to its fixpoint
// and reports the trajectory; the run's lookup memo is shared across the
// iterations, so later passes run mostly on memo hits. Pass 0 is the
// starting point.
func Converge(d *db.DB, name string, opt rewrite.Options, maxPasses int) ([]ConvergeRow, error) {
	spec, ok := benchByName(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown benchmark %q", name)
	}
	if maxPasses <= 0 {
		maxPasses = 10
	}
	m := PrepareStart(spec)
	pipe := engine.New(engine.RewritePass(opt))
	pipe.Name = rewrite.VariantName(opt)
	pipe.DB = d
	pipe.MaxIterations = maxPasses
	_, st, err := pipe.Run(m)
	if err != nil {
		return nil, err
	}
	rows := []ConvergeRow{{Pass: 0, Size: m.Size(), Depth: m.Depth()}}
	for _, ps := range st.Passes {
		rows = append(rows, ConvergeRow{
			Pass: ps.Iteration, Size: ps.SizeAfter, Depth: ps.DepthAfter,
			CacheHits: ps.CacheHits,
		})
	}
	return rows, nil
}

// FormatConverge renders the trajectory.
func FormatConverge(name, variant string, rows []ConvergeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s, repeated %s:\n", name, variant)
	fmt.Fprintf(&b, "%-5s %8s %6s %8s %10s\n", "pass", "size", "depth", "ratio", "cache-hit")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5d %8d %6d %8.3f %10d\n", r.Pass, r.Size, r.Depth,
			float64(r.Size)/float64(rows[0].Size), r.CacheHits)
	}
	return b.String()
}
