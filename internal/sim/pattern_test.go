package sim

import (
	"fmt"
	"testing"
)

// poolWithCEs returns a pool over n inputs holding ces recorded
// counterexamples, each a deterministic mix of the tag, its index and
// the input.
func poolWithCEs(n int, seed uint64, ces int, tag uint64) *Pool {
	p := NewPool(n, seed)
	for c := 0; c < ces; c++ {
		asn := make([]bool, n)
		for i := range asn {
			asn[i] = splitmix64(tag^uint64(c)<<32^uint64(i))&1 == 1
		}
		p.Add(asn)
	}
	return p
}

// checkFill compares Fill with the reference on one pool and batch size.
// Both start from garbage so that a word Fill forgets to write shows.
func checkFill(t *testing.T, p *Pool, w int) {
	t.Helper()
	got := make([]uint64, p.n*w)
	want := make([]uint64, p.n*w)
	for k := range got {
		got[k] = 0xDEADBEEF_0BADF00D * uint64(k+1)
		want[k] = ^got[k]
	}
	p.Fill(got, w)
	fillRef(p, want, w)
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("n=%d w=%d ces=%d: word %d (input %d, word %d) = %#x, reference %#x",
				p.n, w, len(p.ces), k, k/w, k%w, got[k], want[k])
		}
	}
}

// TestFillMatchesReference pins Fill word for word against the retained
// bit-at-a-time ladder, on widths around the word boundaries and the
// 512-input cones the server verifies, at batch sizes from one word to
// the harness's 16 and the prefilter's 32. The ladder of 2+ces+2n
// patterns outgrows one word from 63 inputs, two from 65, and 16 from
// 511 inputs with a counterexample or 512 without, so truncation inside
// the walking blocks is covered; the last cases truncate inside the
// counterexample block and exactly at its end.
func TestFillMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 511, 512, 700} {
		for _, w := range []int{1, 2, 3, 16, 32} {
			for ces := 0; ces <= 3; ces++ {
				checkFill(t, poolWithCEs(n, uint64(n*131+w), ces, 7), w)
			}
		}
	}
	for _, ces := range []int{61, 62, 63, 70} {
		checkFill(t, poolWithCEs(2, 5, ces, 9), 1)
	}
}

// FuzzPoolFill compares Fill with the reference over input counts,
// batch sizes (zero words included), seeds and up to 79 recorded
// counterexamples.
func FuzzPoolFill(f *testing.F) {
	f.Add(uint16(512), uint8(16), uint64(0), uint8(0), uint64(0))
	f.Add(uint16(65), uint8(2), uint64(1), uint8(3), uint64(7))
	f.Add(uint16(2), uint8(1), uint64(3), uint8(70), uint64(9))
	f.Add(uint16(700), uint8(32), uint64(42), uint8(1), uint64(0xff))
	f.Fuzz(func(t *testing.T, n uint16, w uint8, seed uint64, ces uint8, tag uint64) {
		checkFill(t, poolWithCEs(int(n%1025), seed, int(ces%80), tag), int(w%34))
	})
}

// BenchmarkPoolFill times one fill of a 512-input batch at the harness's
// 16 words and the prefilter's 32, beside the retained bit-at-a-time
// reference (the "ref" rows).
func BenchmarkPoolFill(b *testing.B) {
	const n = 512
	p := poolWithCEs(n, 1, 2, 3)
	for _, w := range []int{16, 32} {
		words := make([]uint64, n*w)
		b.Run(fmt.Sprintf("n=%d/w=%d", n, w), func(b *testing.B) {
			for b.Loop() {
				p.Fill(words, w)
			}
		})
		b.Run(fmt.Sprintf("ref/n=%d/w=%d", n, w), func(b *testing.B) {
			for b.Loop() {
				fillRef(p, words, w)
			}
		})
	}
}
