package mig_test

import (
	"io"
	"strings"
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/engine"
	"mighash/internal/exp"
	"mighash/internal/mig"
)

// BenchmarkBENCHCodec times the BENCH writer and reader, the two codec
// steps of every HTTP optimization request, on the 1536-gate cone of
// output 0 of the prepared Max: the kind of netlist the service's
// clients send, prepared as the benchmark harness prepares its cones.
func BenchmarkBENCHCodec(b *testing.B) {
	spec, ok := circuits.ByName("Max")
	if !ok {
		b.Fatal("Max benchmark missing")
	}
	cone := engine.ExtractCone(exp.PrepareStart(spec), 0)
	var sb strings.Builder
	if err := cone.WriteBENCH(&sb); err != nil {
		b.Fatal(err)
	}
	src := sb.String()
	perGate := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cone.NumGates()), "ns/gate")
	}
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := cone.WriteBENCH(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		perGate(b)
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		var r strings.Reader
		for b.Loop() {
			r.Reset(src)
			if _, err := mig.ReadBENCH(&r); err != nil {
				b.Fatal(err)
			}
		}
		perGate(b)
	})
}
