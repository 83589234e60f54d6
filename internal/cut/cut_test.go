package cut

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/depthopt"
	"mighash/internal/mig"
)

// buildFullAdder returns the Fig. 1 full adder and its sum/carry literals.
func buildFullAdder() (*mig.MIG, mig.Lit, mig.Lit) {
	m := mig.New(3)
	s, c := m.FullAdder(m.Input(0), m.Input(1), m.Input(2))
	m.AddOutput(s)
	m.AddOutput(c)
	return m, s, c
}

func TestTerminalCuts(t *testing.T) {
	m, _, _ := buildFullAdder()
	sets := Enumerate(m, Options{})
	if len(sets[0]) != 1 || sets[0][0].N != 0 {
		t.Errorf("constant node cuts = %v, want the empty cut", sets[0])
	}
	for i := 0; i < 3; i++ {
		id := m.Input(i).ID()
		if len(sets[id]) != 1 || sets[id][0].N != 1 || sets[id][0].L[0] != id {
			t.Errorf("input %d cuts = %v", i, sets[id])
		}
	}
}

func TestFullAdderCuts(t *testing.T) {
	m, s, c := buildFullAdder()
	sets := Enumerate(m, Options{})
	// The carry node 〈abc〉 has exactly the input cut and its trivial cut.
	carry := sets[c.ID()]
	if len(carry) != 2 {
		t.Fatalf("carry has %d cuts: %v", len(carry), carry)
	}
	if carry[0].N != 3 {
		t.Errorf("carry primary cut = %v, want the 3 inputs", carry[0].String())
	}
	if carry[len(carry)-1].N != 1 || carry[len(carry)-1].L[0] != c.ID() {
		t.Error("trivial cut missing or not last")
	}
	// The sum node must have a cut consisting of the three inputs.
	foundInputs := false
	for _, cc := range sets[s.ID()] {
		if cc.N == 3 && cc.L[0] == m.Input(0).ID() && cc.L[1] == m.Input(1).ID() && cc.L[2] == m.Input(2).ID() {
			foundInputs = true
		}
	}
	if !foundInputs {
		t.Errorf("sum node lacks the primary-input cut: %v", sets[s.ID()])
	}
}

// validateCut checks the two cut conditions of Sec. II-C by cone traversal.
func validateCut(m *mig.MIG, root mig.ID, c *Cut) bool {
	inL := map[mig.ID]bool{}
	for _, l := range c.Leaves() {
		inL[l] = true
	}
	used := map[mig.ID]bool{}
	ok := true
	var visit func(id mig.ID)
	seen := map[mig.ID]bool{}
	var rec func(id mig.ID)
	rec = func(id mig.ID) {
		if id == 0 {
			return // paths to the constant are exempt
		}
		if inL[id] {
			used[id] = true
			return
		}
		if !m.IsGate(id) {
			ok = false // reached an input that is not a leaf
			return
		}
		if seen[id] {
			return
		}
		seen[id] = true
		for _, ch := range m.Fanin(id) {
			rec(ch.ID())
		}
	}
	visit = rec
	visit(root)
	if !ok {
		return false
	}
	return len(used) == len(c.Leaves()) // every leaf on some path
}

func TestEnumeratedCutsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		m := randomMIG(rng, 5, 25)
		sets := Enumerate(m, Options{K: 4, MaxCuts: 50})
		for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
			for i := range sets[id] {
				c := &sets[id][i]
				if int(c.N) > 4 {
					t.Fatalf("cut %v exceeds k", c)
				}
				if !validateCut(m, mig.ID(id), c) {
					t.Fatalf("trial %d: invalid cut %v of node %d", trial, c, id)
				}
			}
		}
	}
}

func TestCutFunctionsComposeCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m := randomMIG(rng, 5, 20)
		sets := Enumerate(m, Options{K: 4, MaxCuts: 20})
		// Node functions over the PIs, for cross-checking.
		ref := nodeTTs(m)
		for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
			for i := range sets[id] {
				c := &sets[id][i]
				local := m.ConeTT(mig.MakeLit(mig.ID(id), false), c.Leaves())
				// Compose: for every PI assignment, the cut function applied
				// to the leaf values must equal the node value.
				for j := uint(0); j < 32; j++ {
					var idx uint
					for li, leaf := range c.Leaves() {
						if ref[leaf].Eval(j) {
							idx |= 1 << uint(li)
						}
					}
					if local.Eval(idx) != ref[id].Eval(j) {
						t.Fatalf("trial %d node %d cut %v: composition mismatch at %d", trial, id, c, j)
					}
				}
			}
		}
	}
}

// TestCutTTMatchesConeTT checks the incrementally-maintained truth table
// of every enumerated cut against the reference cone re-simulation: the
// carried TT must equal ConeTT(root, leaves).Expand(5) exactly, which is
// what the rewrite hot path consumes instead of re-simulating. Both
// rewriting widths are covered; with K = 4 the low 16 bits must equally
// read back as the 4-variable table.
func TestCutTTMatchesConeTT(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		m := randomMIG(rng, 5, 30)
		for _, k := range []int{4, 5} {
			sets := Enumerate(m, Options{K: k, MaxCuts: 30})
			for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
				for i := range sets[id] {
					c := &sets[id][i]
					want := m.ConeTT(mig.MakeLit(mig.ID(id), false), c.Leaves()).Expand(5)
					if uint64(c.TT) != want.Bits {
						t.Fatalf("trial %d k=%d node %d cut %v: TT %#08x, want %#08x",
							trial, k, id, c, c.TT, want.Bits)
					}
					if int(c.N) <= 4 {
						want4 := m.ConeTT(mig.MakeLit(mig.ID(id), false), c.Leaves()).Expand(4)
						if uint64(uint16(c.TT)) != want4.Bits {
							t.Fatalf("trial %d k=%d node %d cut %v: low TT half %#04x, want %#04x",
								trial, k, id, c, uint16(c.TT), want4.Bits)
						}
					}
				}
			}
		}
	}
}

// TestWorkspaceReuseMatchesFresh re-enumerates different graphs through
// one Workspace and checks the arena-backed sets equal fresh ones.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w := NewWorkspace()
	for trial := 0; trial < 10; trial++ {
		m := randomMIG(rng, 5, 10+rng.Intn(60))
		got := w.Enumerate(m, Options{K: 4, MaxCuts: 12})
		want := Enumerate(m, Options{K: 4, MaxCuts: 12})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d sets, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if len(got[id]) != len(want[id]) {
				t.Fatalf("trial %d node %d: %d cuts, want %d", trial, id, len(got[id]), len(want[id]))
			}
			for i := range want[id] {
				if got[id][i] != want[id][i] {
					t.Fatalf("trial %d node %d cut %d: %+v != %+v", trial, id, i, got[id][i], want[id][i])
				}
			}
		}
	}
}

// TestWorkspaceEnumerateSteadyStateAllocs pins the arena property: after
// the first enumeration, re-enumerating the same graph allocates nothing,
// at both rewriting widths.
func TestWorkspaceEnumerateSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m := randomMIG(rng, 6, 300)
	for _, k := range []int{4, 5} {
		w := NewWorkspace()
		w.Enumerate(m, Options{K: k, MaxCuts: 24}) // warm the arena
		allocs := testing.AllocsPerRun(10, func() {
			w.Enumerate(m, Options{K: k, MaxCuts: 24})
		})
		if allocs > 0 {
			t.Errorf("K=%d: steady-state enumeration allocates %.1f objects/run, want 0", k, allocs)
		}
	}
}

// TestWorkspaceBlocksTrackCutsKept: the blocks of one workspace, driven
// from a 20-gate graph to the prepared Square and back twice, hold the
// most cuts any call kept plus at most one block and, per block, a tail
// of at most MaxCuts cuts a set too large for it left unused. No block
// exceeds blockCuts, and the 20-gate graph allocates no full-size block.
func TestWorkspaceBlocksTrackCutsKept(t *testing.T) {
	opts := Options{K: 5, MaxCuts: 24}
	small := randomMIG(rand.New(rand.NewSource(61)), 6, 20)
	large := prepared(t, "Square")
	w := NewWorkspace()
	keptMax := 0
	for i, m := range []*mig.MIG{small, large, small, large} {
		kept := 0
		for _, s := range w.Enumerate(m, opts) {
			kept += len(s)
		}
		keptMax = max(keptMax, kept)
		capacity, largest := 0, 0
		for j, b := range w.blocks {
			capacity += cap(b)
			largest = max(largest, cap(b))
			if j < w.cur && cap(b)-len(b) > opts.MaxCuts {
				t.Errorf("call %d: block %d leaves %d of %d cuts unused", i, j, cap(b)-len(b), cap(b))
			}
		}
		if bound := keptMax + largest + len(w.blocks)*opts.MaxCuts; capacity > bound {
			t.Errorf("call %d: %d blocks hold %d cuts, more than %d (%d kept at most, largest block %d)",
				i, len(w.blocks), capacity, bound, keptMax, largest)
		}
		if largest > blockCuts || (i == 0 && largest == blockCuts) {
			t.Errorf("call %d: the %d-node graph left a %d-cut block", i, m.NumNodes(), largest)
		}
	}
	if len(w.blocks) < 3 {
		t.Fatalf("the prepared Square fills %d blocks; the test needs several", len(w.blocks))
	}
}

// mergeSetsRef is the unpruned triple loop the signature prefilters
// replaced: every (a, b, c) triple is merged, and every merged cut gets
// its truth table before addIrredundantRef decides whether to keep it.
func mergeSetsRef(out []Cut, sa, sb, sc []Cut, f [3]mig.Lit, root mig.ID, opts Options, withTT bool) []Cut {
	for ia := range sa {
		for ib := range sb {
			for ic := range sc {
				c, ok := merge3(&sa[ia], &sb[ib], &sc[ic], opts.K)
				if !ok {
					continue
				}
				if withTT {
					c.TT = mergedTT(f, &sa[ia], &sb[ib], &sc[ic], &c)
				}
				out = addIrredundantRef(out, c, opts.MaxCuts)
			}
		}
	}
	triv := Cut{Sig: sigOf(root), N: 1, L: [MaxK]mig.ID{root}}
	if withTT {
		triv.TT = ttVar0
	}
	return append(out, triv)
}

// addIrredundantRef is the by-value insertion mergeSetsRef uses.
func addIrredundantRef(set []Cut, c Cut, maxCuts int) []Cut {
	for i := range set {
		if set[i].subsetOf(&c) {
			return set
		}
	}
	n := 0
	for i := range set {
		if !c.subsetOf(&set[i]) {
			set[n] = set[i]
			n++
		}
	}
	set = set[:n]
	if len(set) < maxCuts {
		pos := len(set)
		for pos > 0 && set[pos-1].N > c.N {
			pos--
		}
		set = append(set, Cut{})
		copy(set[pos+1:], set[pos:])
		set[pos] = c
		return set
	}
	if set[len(set)-1].N > c.N {
		pos := len(set) - 1
		for pos > 0 && set[pos-1].N > c.N {
			pos--
		}
		copy(set[pos+1:], set[pos:len(set)-1])
		set[pos] = c
	}
	return set
}

// enumerateRef is Enumerate driven by the reference loop.
func enumerateRef(m *mig.MIG, opts Options) [][]Cut {
	opts = opts.withDefaults()
	withTT := opts.K <= 5
	sets := make([][]Cut, m.NumNodes())
	sets[0] = []Cut{{}}
	for i := 0; i < m.NumPIs(); i++ {
		id := m.Input(i).ID()
		c := Cut{Sig: sigOf(id), N: 1, L: [MaxK]mig.ID{id}}
		if withTT {
			c.TT = ttVar0
		}
		sets[id] = []Cut{c}
	}
	for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
		f := m.Fanin(mig.ID(id))
		out := make([]Cut, 0, opts.MaxCuts+1)
		sets[id] = mergeSetsRef(out, sets[f[0].ID()], sets[f[1].ID()], sets[f[2].ID()], f, mig.ID(id), opts, withTT)
	}
	return sets
}

// prepared returns the named suite circuit prepared as exp.PrepareStart
// prepares the rewriter's starting points (exp imports this package, so
// the preparation is spelled out here).
func prepared(tb testing.TB, name string) *mig.MIG {
	tb.Helper()
	spec, ok := circuits.ByName(name)
	if !ok {
		tb.Fatalf("benchmark %s missing", name)
	}
	m, _ := depthopt.Optimize(spec.Build(), depthopt.Options{SizeFactor: 8, MaxPasses: 40})
	return m
}

// TestEnumerateMatchesReference: the pruned enumeration returns exactly
// the cut values (Sig, TT, N, L, in order) of the unpruned reference loop,
// over every width and under caps that make insertion order matter, on
// random graphs and on prepared suite circuits. One workspace serves
// every case, so block reuse is covered too: the prepared Square's K = 5
// sets span seven blocks, and it comes first and last, so the workspace
// goes from a large graph to small ones and back.
func TestEnumerateMatchesReference(t *testing.T) {
	type tc struct {
		name string
		m    *mig.MIG
		opts Options
	}
	large := tc{"Square", prepared(t, "Square"), Options{K: 5, MaxCuts: 24}}
	cases := []tc{large}
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 4; trial++ {
		m := randomMIG(rng, 6+trial, 150)
		for k := 2; k <= MaxK; k++ {
			for _, maxCuts := range []int{5, 12, 24} {
				cases = append(cases, tc{fmt.Sprintf("random%d", trial), m, Options{K: k, MaxCuts: maxCuts}})
			}
		}
	}
	for _, name := range []string{"Adder", "Max"} {
		m := prepared(t, name)
		for _, k := range []int{4, 5} {
			cases = append(cases, tc{name, m, Options{K: k, MaxCuts: 24}})
		}
	}
	cases = append(cases, large)
	w := NewWorkspace()
	for _, c := range cases {
		got := w.Enumerate(c.m, c.opts)
		want := enumerateRef(c.m, c.opts)
		for id := range want {
			if len(got[id]) != len(want[id]) {
				t.Fatalf("%s K=%d MaxCuts=%d node %d: %d cuts, want %d",
					c.name, c.opts.K, c.opts.MaxCuts, id, len(got[id]), len(want[id]))
			}
			for i := range want[id] {
				if got[id][i] != want[id][i] {
					t.Fatalf("%s K=%d MaxCuts=%d node %d cut %d: %+v, want %+v",
						c.name, c.opts.K, c.opts.MaxCuts, id, i, got[id][i], want[id][i])
				}
			}
		}
	}
}

// bruteCounts recounts the work of one enumeration over its final cut
// sets: tested is the triples whose pair's signature union has at most k
// bits (the pair prefilter skips the rest), walks the triples whose own
// union has at most k bits.
func bruteCounts(m *mig.MIG, sets [][]Cut, k int) (tested, walks int) {
	for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
		f := m.Fanin(mig.ID(id))
		for _, a := range sets[f[0].ID()] {
			for _, b := range sets[f[1].ID()] {
				for _, c := range sets[f[2].ID()] {
					if bits.OnesCount64(a.Sig|b.Sig) <= k {
						tested++
					}
					if bits.OnesCount64(a.Sig|b.Sig|c.Sig) <= k {
						walks++
					}
				}
			}
		}
	}
	return tested, walks
}

// TestMergeWalkCounts pins the pruning without timing: the triples an
// enumeration tests and merges equal a brute-force count over its cut
// sets, and on the prepared Adder and Max they are exact constants. A
// build without the pair prefilter tests every triple; one without the
// triple prefilter walks every tested triple.
func TestMergeWalkCounts(t *testing.T) {
	w := NewWorkspace()
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 4; trial++ {
		m := randomMIG(rng, 6+trial, 150)
		for k := 2; k <= MaxK; k++ {
			for _, maxCuts := range []int{5, 12, 24} {
				sets := w.Enumerate(m, Options{K: k, MaxCuts: maxCuts})
				tested, walks := bruteCounts(m, sets, k)
				if w.tested != tested || w.walks != walks {
					t.Fatalf("trial %d K=%d MaxCuts=%d: tested/walked %d/%d triples, brute force %d/%d",
						trial, k, maxCuts, w.tested, w.walks, tested, walks)
				}
			}
		}
	}
	for _, p := range []struct {
		name          string
		k             int
		tested, walks int
	}{
		{"Adder", 4, 3835, 2203},
		{"Adder", 5, 16567, 5893},
		{"Max", 4, 54549, 13548},
		{"Max", 5, 188358, 34965},
	} {
		w.Enumerate(prepared(t, p.name), Options{K: p.k, MaxCuts: 24})
		if w.tested != p.tested || w.walks != p.walks {
			t.Errorf("%s K=%d: tested/walked %d/%d triples, want %d/%d",
				p.name, p.k, w.tested, w.walks, p.tested, p.walks)
		}
	}
}

func TestIrredundance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		m := randomMIG(rng, 5, 20)
		sets := Enumerate(m, Options{K: 4, MaxCuts: 50})
		for id := range sets {
			for i := range sets[id] {
				for j := range sets[id] {
					if i == j {
						continue
					}
					if sets[id][i].subsetOf(&sets[id][j]) {
						t.Fatalf("node %d keeps dominated cut %v ⊇ %v",
							id, sets[id][j].String(), sets[id][i].String())
					}
				}
			}
		}
	}
}

func TestMaxCutsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randomMIG(rng, 6, 60)
	sets := Enumerate(m, Options{K: 4, MaxCuts: 5})
	for id, s := range sets {
		if len(s) > 6 { // 5 + trivial
			t.Errorf("node %d has %d cuts, cap is 5+trivial", id, len(s))
		}
	}
}

func TestWiderK(t *testing.T) {
	m := mig.New(6)
	x := m.Input(0)
	for i := 1; i < 6; i++ {
		x = m.And(x, m.Input(i))
	}
	m.AddOutput(x)
	sets := Enumerate(m, Options{K: 6, MaxCuts: 100})
	// The 6-input AND chain's top node must have the all-inputs cut.
	found := false
	for _, c := range sets[x.ID()] {
		if int(c.N) == 6 {
			found = true
		}
	}
	if !found {
		t.Error("6-feasible cut over all inputs not found")
	}
}

func TestMerge3Saturation(t *testing.T) {
	a := Cut{N: 3, L: [MaxK]mig.ID{1, 2, 3}}
	b := Cut{N: 3, L: [MaxK]mig.ID{4, 5, 6}}
	c := Cut{N: 0}
	if _, ok := merge3(&a, &b, &c, 4); ok {
		t.Error("merge exceeding k must fail")
	}
	if got, ok := merge3(&a, &a, &c, 4); !ok || got.N != 3 {
		t.Errorf("idempotent merge broken: %v %v", got, ok)
	}
}

func TestSubsetOf(t *testing.T) {
	mk := func(ids ...mig.ID) Cut {
		var c Cut
		for _, id := range ids {
			c.L[c.N] = id
			c.N++
			c.Sig |= sigOf(id)
		}
		return c
	}
	a := mk(1, 3)
	b := mk(1, 2, 3)
	if !a.subsetOf(&b) || b.subsetOf(&a) {
		t.Error("subsetOf broken")
	}
	e := mk()
	if !e.subsetOf(&a) {
		t.Error("empty cut must be subset of everything")
	}
}

// randomMIG builds a random MIG over n inputs with g gates.
func randomMIG(rng *rand.Rand, n, g int) *mig.MIG {
	m := mig.New(n)
	sigs := []mig.Lit{mig.Const0}
	for i := 0; i < n; i++ {
		sigs = append(sigs, m.Input(i))
	}
	for i := 0; i < g; i++ {
		pick := func() mig.Lit {
			return sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 1)
		}
		sigs = append(sigs, m.Maj(pick(), pick(), pick()))
	}
	m.AddOutput(sigs[len(sigs)-1])
	return m
}

// nodeTTs returns the function of every node over the primary inputs.
func nodeTTs(m *mig.MIG) []ttLite {
	out := make([]ttLite, m.NumNodes())
	n := m.NumPIs()
	for i := 0; i < n; i++ {
		out[m.Input(i).ID()] = varTT(n, i)
	}
	for id := n + 1; id < m.NumNodes(); id++ {
		f := m.Fanin(mig.ID(id))
		a := out[f[0].ID()].notIf(f[0].Comp(), n)
		b := out[f[1].ID()].notIf(f[1].Comp(), n)
		c := out[f[2].ID()].notIf(f[2].Comp(), n)
		out[id] = ttLite(uint64(a)&uint64(b) | uint64(a)&uint64(c) | uint64(b)&uint64(c))
	}
	return out
}

type ttLite uint64

func varTT(n, i int) ttLite {
	var v uint64
	for j := uint(0); j < uint(1)<<uint(n); j++ {
		if (j>>uint(i))&1 == 1 {
			v |= 1 << j
		}
	}
	return ttLite(v)
}

func (t ttLite) notIf(c bool, n int) ttLite {
	if !c {
		return t
	}
	return ttLite(^uint64(t) & (1<<(1<<uint(n)) - 1))
}

func (t ttLite) Eval(j uint) bool { return uint64(t)>>j&1 == 1 }

// BenchmarkEnumerate measures steady-state enumeration at the rewriter's
// defaults (MaxCuts 24) on the prepared Max, at both rewriting widths.
func BenchmarkEnumerate(b *testing.B) {
	m := prepared(b, "Max")
	for _, k := range []int{4, 5} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			w := NewWorkspace()
			opts := Options{K: k, MaxCuts: 24}
			w.Enumerate(m, opts) // warm the arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Enumerate(m, opts)
			}
		})
	}
}
