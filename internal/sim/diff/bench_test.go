package diff_test

import (
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/engine"
	"mighash/internal/exp"
	"mighash/internal/sim/diff"
)

// BenchmarkHarnessCheck times one per-pass check on the 512-input,
// 1536-gate cone of output 0 of the prepared Max: the widest cone the
// service verifies, and the check it runs after every pass of a
// verify_mode "sim" request. The harness is warmed first, so
// steady-state allocations show.
func BenchmarkHarnessCheck(b *testing.B) {
	spec, ok := circuits.ByName("Max")
	if !ok {
		b.Fatal("Max benchmark missing")
	}
	cone := engine.ExtractCone(exp.PrepareStart(spec), 0)
	h := diff.New()
	if err := h.Check(cone, cone); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := h.Check(cone, cone); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cone.NumGates()), "ns/gate")
}
