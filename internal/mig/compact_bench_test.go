package mig_test

import (
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/exp"
	"mighash/internal/mig"
)

// BenchmarkCompact times Compact, which ends every rewrite pass and every
// depthopt rebuild, on the prepared Max, against the reference that
// rebuilds every gate through Maj into a presized strash (the ref row).
func BenchmarkCompact(b *testing.B) {
	spec, ok := circuits.ByName("Max")
	if !ok {
		b.Fatal("Max benchmark missing")
	}
	m := exp.PrepareStart(spec)
	for _, c := range []struct {
		name    string
		compact func(*mig.MIG) *mig.MIG
	}{{"copy", (*mig.MIG).Compact}, {"ref", mig.CompactRef}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.compact(m)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m.NumGates()), "ns/gate")
		})
	}
}
