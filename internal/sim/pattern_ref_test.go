package sim

// Pool.Fill as it was before it stamped the structural patterns a word
// at a time, kept as the reference the pattern tests compare against.

// fillRef is Pool.Fill as it was before the rewrite: the whole random
// layer first, then one bit per (pattern, input) through two closures.
// Fill must match it word for word.
func fillRef(p *Pool, words []uint64, w int) {
	if len(words) != p.n*w {
		panic("sim: fillRef over a batch of the wrong size")
	}
	for i := 0; i < p.n; i++ {
		row := words[i*w : (i+1)*w]
		for k := range row {
			row[k] = splitmix64(p.seed ^ mix(uint64(i), uint64(k)))
		}
	}
	patterns := 64 * w
	set := func(q, input int, v bool) {
		word, bit := q/64, uint(q%64)
		if v {
			words[input*w+word] |= 1 << bit
		} else {
			words[input*w+word] &^= 1 << bit
		}
	}
	q := 0
	stamp := func(f func(input int) bool) bool {
		if q >= patterns {
			return false
		}
		for i := 0; i < p.n; i++ {
			set(q, i, f(i))
		}
		q++
		return true
	}
	stamp(func(int) bool { return false })
	stamp(func(int) bool { return true })
	p.mu.Lock()
	ces := p.ces
	p.mu.Unlock()
	for _, ce := range ces {
		if !stamp(func(i int) bool { return ce[i] }) {
			return
		}
	}
	for hot := 0; hot < p.n; hot++ {
		if !stamp(func(i int) bool { return i == hot }) {
			return
		}
	}
	for cold := 0; cold < p.n; cold++ {
		if !stamp(func(i int) bool { return i != cold }) {
			return
		}
	}
}
