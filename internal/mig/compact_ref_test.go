package mig

import (
	"math/rand"
	"sync"
	"testing"
)

// compactRef is the reference Compact: it rebuilds every live gate
// through Maj into a graph whose strash is presized, so each triple is
// re-normalized and re-hashed. Compact copies the triples instead, and
// TestCompactMatchesReference requires the two to agree.
func compactRef(m *MIG) *MIG {
	reach := make([]bool, len(m.fanin))
	for _, o := range m.outputs {
		reach[o.ID()] = true
	}
	live := 0
	for id := len(m.fanin) - 1; id > m.numPI; id-- {
		if !reach[id] {
			continue
		}
		live++
		for _, ch := range m.fanin[id] {
			reach[ch.ID()] = true
		}
	}
	out := New(m.numPI)
	out.reserve(live)
	lmap := make([]Lit, len(m.fanin)) // old ID -> new plain literal
	lmap[0] = Const0
	for i := 0; i < m.numPI; i++ {
		lmap[i+1] = out.Input(i)
	}
	for id := m.numPI + 1; id < len(m.fanin); id++ {
		if !reach[id] {
			continue
		}
		f := m.fanin[id]
		lmap[id] = out.Maj(
			lmap[f[0].ID()].NotIf(f[0].Comp()),
			lmap[f[1].ID()].NotIf(f[1].Comp()),
			lmap[f[2].ID()].NotIf(f[2].Comp()))
	}
	for _, o := range m.outputs {
		out.AddOutput(lmap[o.ID()].NotIf(o.Comp()))
	}
	return out
}

// findRef answers FindMaj from m's own strash, as the graph's strash
// answered before probes went through an Index.
func findRef(m *MIG, a, b, c Lit) (Lit, bool) {
	key, neg, lit, done := majNorm(a, b, c)
	if done {
		return lit, true
	}
	if id, ok := m.strash.lookup(key); ok {
		return MakeLit(id, neg), true
	}
	return 0, false
}

// compactInput returns a random strashed graph with dead gates and extra
// outputs, some complemented and some on terminals.
func compactInput(rng *rand.Rand) *MIG {
	m := randomStrashedMIG(rng, 3+rng.Intn(8), 20+rng.Intn(400))
	for o := rng.Intn(5); o > 0; o-- {
		m.AddOutput(MakeLit(ID(rng.Intn(m.NumNodes())), rng.Intn(2) == 0))
	}
	return m
}

// TestCompactMatchesReference pins the copying Compact to the Maj-
// rebuilding reference: the same text, the same FindMaj answers through
// an Index for every gate triple and for random probes, and the same
// literals from Maj calls on the compacted graph, which index it on the
// first one.
func TestCompactMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	var x Index
	for trial := 0; trial < 60; trial++ {
		m := compactInput(rng)
		got, want := m.Compact(), compactRef(m)
		if err := Check(got); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.strash.ids != nil {
			t.Fatalf("trial %d: Compact built a strash", trial)
		}
		if a, b := textForm(got), textForm(want); a != b {
			t.Fatalf("trial %d: Compact gave\n%s\nthe reference\n%s", trial, a, b)
		}
		x.Reset(got)
		randLit := func() Lit { return MakeLit(ID(rng.Intn(got.NumNodes())), rng.Intn(2) == 0) }
		probes := make([][3]Lit, 0, 2*got.NumGates()+200)
		for id := got.NumPIs() + 1; id < got.NumNodes(); id++ {
			f := got.Fanin(ID(id))
			probes = append(probes, f, [3]Lit{f[2].Not(), f[0].Not(), f[1].Not()})
		}
		for i := 0; i < 200; i++ {
			probes = append(probes, [3]Lit{randLit(), randLit(), randLit()})
		}
		for _, p := range probes {
			gl, gok := x.FindMaj(p[0], p[1], p[2])
			wl, wok := findRef(want, p[0], p[1], p[2])
			if gl != wl || gok != wok {
				t.Fatalf("trial %d: FindMaj%v = %v, %v; the reference says %v, %v", trial, p, gl, gok, wl, wok)
			}
		}
		for _, p := range probes {
			if gl, wl := got.Maj(p[0], p[1], p[2]), want.Maj(p[0], p[1], p[2]); gl != wl {
				t.Fatalf("trial %d: Maj%v = %v on the compacted graph, %v on the reference", trial, p, gl, wl)
			}
		}
		if a, b := textForm(got), textForm(want); a != b {
			t.Fatalf("trial %d: the graphs differ after the same Maj calls", trial)
		}
		if err := Check(got); err != nil {
			t.Fatalf("trial %d, after Maj: %v", trial, err)
		}
	}
}

// TestReserveOnEmptyTable: reserve sizes a table without slots from the
// minimum size instead of doubling zero forever, and reserving on a
// compacted graph indexes the gates it already has.
func TestReserveOnEmptyTable(t *testing.T) {
	for _, n := range []int{0, 1, 10, 11, 1000} {
		var tb strashTable
		tb.reserve(n)
		if size := len(tb.ids); size < strashMinSize || size&(size-1) != 0 || 3*n > 2*size {
			t.Errorf("reserve(%d) on an empty table gave %d slots", n, size)
		}
	}
	m := randomStrashedMIG(rand.New(rand.NewSource(73)), 6, 200).Compact()
	m.reserve(50)
	slots := len(m.strash.ids)
	for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
		f := m.Fanin(ID(id))
		if got := m.Maj(f[0], f[1], f[2]); got != MakeLit(ID(id), false) {
			t.Fatalf("after reserve, gate %d rebuilt as %v", id, got)
		}
	}
	if len(m.strash.ids) != slots {
		t.Fatal("the reserved strash grew while re-finding existing gates")
	}
}

// TestCloneOfUnindexedGraph: a clone of a compacted graph carries no
// strash either, and a Maj on the clone indexes the clone alone.
func TestCloneOfUnindexedGraph(t *testing.T) {
	m := randomStrashedMIG(rand.New(rand.NewSource(79)), 5, 100).Compact()
	c := m.Clone()
	if c.strash.ids != nil {
		t.Fatal("the clone of an unindexed graph has a strash")
	}
	f := c.Fanin(ID(c.NumNodes() - 1))
	if got := c.Maj(f[0], f[1], f[2]); got.ID() != ID(c.NumNodes()-1) {
		t.Fatalf("the clone rebuilt its last gate as %v", got)
	}
	if c.strash.ids == nil || m.strash.ids != nil {
		t.Fatal("Maj on the clone must index the clone and leave the original unindexed")
	}
}

// TestSharedInputFindMaj: goroutines that each own an Index probe one
// freshly compacted graph at once, as concurrent runs probe a shared
// input. Probing must only read the graph; run under -race -count=10. No
// probe may run on the graph before the goroutines start: it could build
// shared state early, where the goroutines would not race on it.
func TestSharedInputFindMaj(t *testing.T) {
	src := compactInput(rand.New(rand.NewSource(83)))
	shared := src.Compact()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var x Index
			x.Reset(shared)
			for id := shared.NumPIs() + 1; id < shared.NumNodes(); id++ {
				f := shared.Fanin(ID(id))
				if got, ok := x.FindMaj(f[2], f[1], f[0]); !ok || got != MakeLit(ID(id), false) {
					t.Errorf("FindMaj on gate %d's fanins = %v, %v", id, got, ok)
					return
				}
			}
			if shared.Compact().NumGates() != shared.NumGates() || Check(shared) != nil {
				t.Error("reading the shared graph changed it")
			}
		}()
	}
	wg.Wait()
	if shared.strash.ids != nil {
		t.Fatal("probing built a strash on the shared graph")
	}
}
