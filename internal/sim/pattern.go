package sim

import (
	"fmt"
	"sync"
)

// Pool generates the deterministic input patterns of a simulation sweep
// and accumulates the counterexamples that sharpen it. Every Fill lays
// out the same ladder:
//
//	pattern 0            all inputs 0
//	pattern 1            all inputs 1
//	next len(ces)        recorded counterexamples, oldest first
//	next NumPIs          walking one-hot (input i set, rest clear)
//	next NumPIs          walking one-cold (input i clear, rest set)
//	remainder            splitmix64 pseudo-random, seeded per (seed, input, word)
//
// Structural patterns that do not fit the batch are dropped from the
// back, so the constant and counterexample patterns always survive.
// The random tail of word w of input i depends only on (seed, i, w) —
// growing the batch keeps every earlier pattern bit-identical.
//
// A Pool is safe for concurrent use. Add records an input assignment —
// typically the model of a SAT counterexample — so every later Fill
// replays it first (counterexample-guided: an input that once
// distinguished two graphs is the cheapest probe against the next pair).
type Pool struct {
	n    int
	seed uint64

	mu  sync.Mutex
	ces [][]bool
}

// NewPool returns a pattern pool for circuits with numPIs inputs. Two
// pools with the same seed generate identical patterns.
func NewPool(numPIs int, seed uint64) *Pool {
	if numPIs < 0 {
		panic("sim: negative input count")
	}
	return &Pool{n: numPIs, seed: seed}
}

// NumPIs returns the input count the pool generates patterns for.
func (p *Pool) NumPIs() int { return p.n }

// Add records a counterexample assignment for every later Fill. The
// slice is copied. Assignments of the wrong width are rejected (an
// interface mismatch would silently desynchronize the pattern ladder).
func (p *Pool) Add(assignment []bool) {
	if len(assignment) != p.n {
		panic(fmt.Sprintf("sim: counterexample over %d inputs added to a %d-input pool", len(assignment), p.n))
	}
	p.mu.Lock()
	p.ces = append(p.ces, append([]bool(nil), assignment...))
	p.mu.Unlock()
}

// Counterexamples returns how many assignments have been recorded.
func (p *Pool) Counterexamples() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ces)
}

// Fill writes NumPIs·w pattern words in Run's layout (input i occupies
// words [i·w, (i+1)·w)). See the type comment for the pattern ladder.
//
// The structural patterns fill a prefix [0, end) of the batch, and Fill
// stamps them one input row at a time: per row, each block is one range
// clear or set of whole words, plus one bit per counterexample and one
// bit per walking block. A fill therefore costs O(NumPIs·w) word writes,
// and random words the prefix covers entirely are never generated.
func (p *Pool) Fill(words []uint64, w int) {
	if len(words) != p.n*w {
		panic(fmt.Sprintf("sim: Fill needs %d words (%d PIs × %d), got %d", p.n*w, p.n, w, len(words)))
	}
	if w <= 0 {
		return
	}
	p.mu.Lock()
	ces := p.ces
	p.mu.Unlock()
	// Where each block of the ladder starts, and where truncation cuts it.
	hot := 2 + len(ces)
	cold := hot + p.n
	end := min(cold+p.n, 64*w)
	ces = ces[:min(len(ces), end-2)]
	for i := 0; i < p.n; i++ {
		row := words[i*w : (i+1)*w]
		// Random base layer: every word gets its own splitmix64 output so
		// the pattern stream is position-stable under batch growth.
		for k := end / 64; k < w; k++ {
			row[k] = splitmix64(p.seed ^ mix(uint64(i), uint64(k)))
		}
		// Below the one-cold block every pattern is 0 except the
		// all-ones pattern, this input's counterexample bits and its
		// one-hot bit; the one-cold block is 1 except this input's bit.
		fillBits(row, 0, min(cold, end), false)
		fillBits(row, cold, end, true)
		setBit(row, 1)
		for c, ce := range ces {
			if ce[i] {
				setBit(row, 2+c)
			}
		}
		if q := hot + i; q < end {
			setBit(row, q)
		}
		if q := cold + i; q < end {
			row[q/64] &^= 1 << uint(q%64)
		}
	}
}

// setBit sets pattern q of an input row.
func setBit(row []uint64, q int) { row[q/64] |= 1 << uint(q%64) }

// fillBits sets patterns [a, b) of an input row to v: a masked write of
// the first and last word and plain stores in between. It does nothing
// when a >= b.
func fillBits(row []uint64, a, b int, v bool) {
	if a >= b {
		return
	}
	var fill uint64
	if v {
		fill = ^uint64(0)
	}
	first, last := a/64, (b-1)/64
	lo := ^uint64(0) << uint(a%64)        // patterns >= a of the first word
	hi := ^uint64(0) >> uint(63-(b-1)%64) // patterns < b of the last word
	if first == last {
		m := lo & hi
		row[first] = row[first]&^m | fill&m
		return
	}
	row[first] = row[first]&^lo | fill&lo
	for k := first + 1; k < last; k++ {
		row[k] = fill
	}
	row[last] = row[last]&^hi | fill&hi
}

// splitmix64 is the SplitMix64 output function: a bijective avalanche
// mixer whose successive seeds yield statistically independent words.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// mix folds an (input, word) coordinate into one seed offset.
func mix(i, k uint64) uint64 {
	return splitmix64(i*0x9E3779B97F4A7C15 + k + 1)
}
