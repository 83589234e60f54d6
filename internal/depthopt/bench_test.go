package depthopt

import (
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/mig"
)

// BenchmarkOptimize times the depth optimizer on Max twice over: as the
// suite preparation runs it on the circuit as built (factor 8, up to 40
// passes), and as the resyn script's depthopt pass runs it on the
// prepared result (factor 1.2, up to 10 passes).
func BenchmarkOptimize(b *testing.B) {
	spec, ok := circuits.ByName("Max")
	if !ok {
		b.Fatal("Max benchmark missing")
	}
	built := spec.Build()
	prepare := Options{SizeFactor: 8, MaxPasses: 40}
	prepared, _ := Optimize(built, prepare)
	for _, c := range []struct {
		name string
		opt  Options
		m    *mig.MIG
	}{{"prepare", prepare, built}, {"resyn", Options{SizeFactor: 1.2, MaxPasses: 10}, prepared}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Optimize(c.m, c.opt)
			}
		})
	}
}
