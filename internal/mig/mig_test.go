package mig

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mighash/internal/tt"
)

func TestLitPacking(t *testing.T) {
	l := MakeLit(5, true)
	if l.ID() != 5 || !l.Comp() {
		t.Errorf("MakeLit broken: %v", l)
	}
	if l.Not().Comp() || l.Not().ID() != 5 {
		t.Errorf("Not broken: %v", l.Not())
	}
	if l.NotIf(false) != l || l.NotIf(true) != l.Not() {
		t.Error("NotIf broken")
	}
	if Const1 != Const0.Not() {
		t.Error("constants inconsistent")
	}
	if l.String() != "~5" || l.Not().String() != "5" {
		t.Errorf("String: %q %q", l.String(), l.Not().String())
	}
}

func TestTerminals(t *testing.T) {
	m := New(3)
	if m.NumPIs() != 3 || m.NumNodes() != 4 || m.NumGates() != 0 {
		t.Fatalf("fresh MIG wrong: %+v", m.Stats())
	}
	for i := 0; i < 3; i++ {
		in := m.Input(i)
		if !m.IsInput(in.ID()) || m.InputIndex(in.ID()) != i {
			t.Errorf("input %d misidentified", i)
		}
	}
	if m.IsGate(0) || m.IsGate(1) {
		t.Error("terminals classified as gates")
	}
}

func TestMajAxioms(t *testing.T) {
	m := New(3)
	a, b := m.Input(0), m.Input(1)
	if got := m.Maj(a, a, b); got != a {
		t.Errorf("〈aab〉 = %v, want %v", got, a)
	}
	if got := m.Maj(a, a.Not(), b); got != b {
		t.Errorf("〈aāb〉 = %v, want %v", got, b)
	}
	if got := m.Maj(Const0, Const1, b); got != b {
		t.Errorf("〈01b〉 = %v, want %v", got, b)
	}
	if got := m.Maj(Const0, Const0, b); got != Const0 {
		t.Errorf("〈00b〉 = %v, want const 0", got)
	}
	if m.NumGates() != 0 {
		t.Errorf("axiom applications created %d gates", m.NumGates())
	}
}

func TestStructuralHashing(t *testing.T) {
	m := New(3)
	a, b, c := m.Input(0), m.Input(1), m.Input(2)
	g1 := m.Maj(a, b, c)
	g2 := m.Maj(c, a, b) // commutativity
	if g1 != g2 {
		t.Error("commutative operands not hashed together")
	}
	g3 := m.Maj(a.Not(), b.Not(), c.Not()) // self-duality
	if g3 != g1.Not() {
		t.Errorf("self-dual gate not shared: %v vs %v", g3, g1.Not())
	}
	if m.NumGates() != 1 {
		t.Errorf("expected 1 gate, have %d", m.NumGates())
	}
}

func TestDerivedOps(t *testing.T) {
	m := New(2)
	a, b := m.Input(0), m.Input(1)
	m.AddOutput(m.And(a, b))
	m.AddOutput(m.Or(a, b))
	m.AddOutput(m.Xor(a, b))
	m.AddOutput(m.Mux(a, b, b.Not()))
	tts := m.Simulate()
	x, y := tt.Var(2, 0), tt.Var(2, 1)
	if tts[0] != x.And(y) {
		t.Errorf("And = %v", tts[0])
	}
	if tts[1] != x.Or(y) {
		t.Errorf("Or = %v", tts[1])
	}
	if tts[2] != x.Xor(y) {
		t.Errorf("Xor = %v", tts[2])
	}
	if tts[3] != tt.Mux(x, y, y.Not()) {
		t.Errorf("Mux = %v", tts[3])
	}
}

// TestFullAdderFig1 reproduces Fig. 1 of the paper: a full adder in three
// majority gates with depth 2.
func TestFullAdderFig1(t *testing.T) {
	m := New(3)
	a, b, cin := m.Input(0), m.Input(1), m.Input(2)
	sum, carry := m.FullAdder(a, b, cin)
	m.AddOutput(sum)
	m.AddOutput(carry)
	if got := m.Size(); got != 3 {
		t.Errorf("full adder size = %d, want 3 (Fig. 1)", got)
	}
	if got := m.Depth(); got != 2 {
		t.Errorf("full adder depth = %d, want 2 (Fig. 1)", got)
	}
	tts := m.Simulate()
	x, y, z := tt.Var(3, 0), tt.Var(3, 1), tt.Var(3, 2)
	if tts[0] != x.Xor(y).Xor(z) {
		t.Errorf("sum = %v, want xor3", tts[0])
	}
	if tts[1] != tt.Maj(x, y, z) {
		t.Errorf("carry = %v, want maj", tts[1])
	}
}

func TestSizeIgnoresDeadGates(t *testing.T) {
	m := New(3)
	a, b, c := m.Input(0), m.Input(1), m.Input(2)
	m.Maj(a, b, c) // dead gate: never connected to an output
	live := m.And(a, b)
	m.AddOutput(live)
	if m.NumGates() != 2 {
		t.Fatalf("expected 2 created gates, have %d", m.NumGates())
	}
	if m.Size() != 1 {
		t.Errorf("Size = %d, want 1 (dead gate must not count)", m.Size())
	}
}

func TestLevelsAndDepth(t *testing.T) {
	m := New(4)
	l1 := m.And(m.Input(0), m.Input(1))
	l2 := m.And(l1, m.Input(2))
	l3 := m.And(l2, m.Input(3))
	m.AddOutput(l3)
	if got := m.Depth(); got != 3 {
		t.Errorf("chain depth = %d, want 3", got)
	}
	if m.Level(l1.ID()) != 1 || m.Level(l2.ID()) != 2 || m.Level(l3.ID()) != 3 {
		t.Errorf("levels wrong: %d %d %d", m.Level(l1.ID()), m.Level(l2.ID()), m.Level(l3.ID()))
	}
}

func TestFanoutCounts(t *testing.T) {
	m := New(2)
	a, b := m.Input(0), m.Input(1)
	g := m.And(a, b)
	h := m.Or(g, a)
	m.AddOutput(h)
	m.AddOutput(g.Not())
	fo := m.FanoutCounts()
	if fo[g.ID()] != 2 { // used by h and by an output
		t.Errorf("fanout of g = %d, want 2", fo[g.ID()])
	}
	if fo[a.ID()] != 2 {
		t.Errorf("fanout of a = %d, want 2", fo[a.ID()])
	}
}

func TestCleanupDropsDeadNodes(t *testing.T) {
	m := New(3)
	a, b, c := m.Input(0), m.Input(1), m.Input(2)
	m.Maj(a, b, c)           // dead
	m.And(m.Maj(a, b, c), c) // dead
	out := m.Xor(a, b)       // live, 3 gates
	m.AddOutput(out.Not())
	clean := m.Compact()
	if clean.Size() != 3 || clean.NumGates() != 3 {
		t.Errorf("cleanup kept %d gates, want 3", clean.NumGates())
	}
	if clean.NumPIs() != 3 || clean.NumPOs() != 1 {
		t.Error("cleanup changed the interface")
	}
	want := m.Simulate()
	got := clean.Simulate()
	if want[0] != got[0] {
		t.Error("cleanup changed the function")
	}
}

func TestSimulateWordsAgainstTT(t *testing.T) {
	m := New(4)
	f := m.Maj(m.Xor(m.Input(0), m.Input(1)), m.Input(2), m.And(m.Input(3), m.Input(0)))
	m.AddOutput(f)
	want := m.Simulate()[0]
	inputs := make([]uint64, 4)
	for i := range inputs {
		inputs[i] = tt.Var(4, i).Bits // the 16 exhaustive patterns
	}
	got := m.SimulateWords(inputs)[0] & tt.Mask(4)
	if got != want.Bits {
		t.Errorf("word simulation %#x != tt simulation %v", got, want)
	}
}

func TestEvalBits(t *testing.T) {
	m := New(3)
	s, c := m.FullAdder(m.Input(0), m.Input(1), m.Input(2))
	m.AddOutput(s)
	m.AddOutput(c)
	for a := 0; a < 8; a++ {
		in := []bool{a&1 == 1, a&2 == 2, a&4 == 4}
		got := m.EvalBits(in)
		n := a&1 + a>>1&1 + a>>2&1
		if got[0] != (n&1 == 1) || got[1] != (n >= 2) {
			t.Fatalf("EvalBits(%03b) = %v", a, got)
		}
	}
}

func TestConeTT(t *testing.T) {
	m := New(4)
	a, b, c, d := m.Input(0), m.Input(1), m.Input(2), m.Input(3)
	g := m.And(a, b)
	h := m.Or(g, c)
	top := m.Xor(h, d)
	m.AddOutput(top)
	// Cone of h with leaves {g, c}: local function is x0 | x1.
	local := m.ConeTT(h, []ID{g.ID(), c.ID()})
	if local != tt.Var(2, 0).Or(tt.Var(2, 1)) {
		t.Errorf("cone function = %v", local)
	}
	// Whole cone of top over the inputs.
	full := m.ConeTT(top, []ID{a.ID(), b.ID(), c.ID(), d.ID()})
	if full != m.Simulate()[0] {
		t.Error("full cone disagrees with simulation")
	}
}

func TestConeTTPanicsOnEscape(t *testing.T) {
	m := New(2)
	g := m.And(m.Input(0), m.Input(1))
	m.AddOutput(g)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for an escaping cone")
		}
	}()
	m.ConeTT(g, []ID{m.Input(0).ID()}) // missing input 1
}

func TestFFRRoots(t *testing.T) {
	m := New(4)
	a, b, c, d := m.Input(0), m.Input(1), m.Input(2), m.Input(3)
	shared := m.And(a, b) // fanout 2 -> own region root
	u := m.Or(shared, c)  // single fanout -> belongs to top's region
	v := m.And(shared, d) // single fanout -> belongs to top's region
	top := m.Maj(u, v, a) // output root
	m.AddOutput(top)
	roots := m.FFRRoots(m.FanoutCounts())
	if roots[shared.ID()] != shared.ID() {
		t.Errorf("multi-fanout node should be its own root, got %d", roots[shared.ID()])
	}
	if roots[u.ID()] != top.ID() || roots[v.ID()] != top.ID() {
		t.Errorf("single-fanout nodes should chain to top: %d %d", roots[u.ID()], roots[v.ID()])
	}
	groups := m.FFRMembers()
	if len(groups[top.ID()]) != 3 { // u, v, top
		t.Errorf("top region has %d members, want 3", len(groups[top.ID()]))
	}
	if len(groups[shared.ID()]) != 1 {
		t.Errorf("shared region has %d members, want 1", len(groups[shared.ID()]))
	}
}

func TestConeIsReplaceable(t *testing.T) {
	m := New(4)
	a, b, c, d := m.Input(0), m.Input(1), m.Input(2), m.Input(3)
	inner := m.And(a, b)
	top := m.Or(inner, c)
	other := m.Xor(inner, d) // gives inner external fanout
	m.AddOutput(top)
	m.AddOutput(other)
	fo := m.FanoutCounts()
	leaves := []ID{a.ID(), b.ID(), c.ID()}
	if m.ConeIsReplaceable(top.ID(), leaves, fo) {
		t.Error("cone with escaping internal fanout reported replaceable")
	}
	// Without the second output the cone becomes replaceable.
	m2 := New(4)
	a2, b2, c2 := m2.Input(0), m2.Input(1), m2.Input(2)
	inner2 := m2.And(a2, b2)
	top2 := m2.Or(inner2, c2)
	m2.AddOutput(top2)
	fo2 := m2.FanoutCounts()
	if !m2.ConeIsReplaceable(top2.ID(), []ID{a2.ID(), b2.ID(), c2.ID()}, fo2) {
		t.Error("clean cone reported non-replaceable")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(2)
	m.AddOutput(m.And(m.Input(0), m.Input(1)))
	c := m.Clone()
	c.AddOutput(c.Or(c.Input(0), c.Input(1)))
	if m.NumPOs() != 1 || c.NumPOs() != 2 {
		t.Error("clone shares state with original")
	}
	if m.Simulate()[0] != c.Simulate()[0] {
		t.Error("clone changed existing function")
	}
}

// randomMIG builds a random MIG over n inputs with g gates for fuzzing.
func randomMIG(rng *rand.Rand, n, g, outs int) *MIG {
	m := New(n)
	sigs := []Lit{Const0}
	for i := 0; i < n; i++ {
		sigs = append(sigs, m.Input(i))
	}
	for i := 0; i < g; i++ {
		pick := func() Lit {
			return sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 1)
		}
		sigs = append(sigs, m.Maj(pick(), pick(), pick()))
	}
	for i := 0; i < outs; i++ {
		m.AddOutput(sigs[len(sigs)-1-rng.Intn(minInt(len(sigs), 5))].NotIf(rng.Intn(2) == 1))
	}
	return m
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestCleanupPreservesFunctionFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 100; trial++ {
		m := randomMIG(rng, 5, 30, 3)
		clean := m.Compact()
		want := m.Simulate()
		got := clean.Simulate()
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: cleanup changed output %d", trial, i)
			}
		}
		if clean.Size() > m.Size() {
			t.Fatalf("trial %d: cleanup grew the MIG", trial)
		}
	}
}

func TestStrashNormalFormProperty(t *testing.T) {
	// Any way of writing the same majority over the same three signals must
	// return the identical literal.
	f := func(perm uint8, comps uint8) bool {
		m := New(3)
		base := [3]Lit{m.Input(0), m.Input(1), m.Input(2)}
		ref := m.Maj(base[0], base[1], base[2])
		p := Perms3[perm%6]
		a := base[p[0]]
		b := base[p[1]]
		c := base[p[2]]
		// Complement all three: self-dual, must give ref.Not().
		if comps&1 == 1 {
			a, b, c = a.Not(), b.Not(), c.Not()
			return m.Maj(a, b, c) == ref.Not()
		}
		return m.Maj(a, b, c) == ref
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Perms3 lists the six permutations of three elements (exported for reuse
// in other tests of this package).
var Perms3 = [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// TestDeepChainIterativeTraversals builds a majority chain hundreds of
// thousands of gates deep — the shape of a long ripple-carry path — and
// runs every traversal that used to be recursive. With the iterative
// implementations this completes in bounded stack space regardless of
// depth.
func TestDeepChainIterativeTraversals(t *testing.T) {
	const depth = 1 << 19
	m := New(2)
	x, y := m.Input(0), m.Input(1)
	g := m.Maj(Const1, x, y)
	for i := 1; i < depth; i++ {
		// Alternate complementation so no majority axiom fires and every
		// step creates a fresh gate one level deeper.
		g = m.Maj(g.NotIf(i%2 == 0), x, y.Not())
	}
	m.AddOutput(g)

	clean := m.Compact() // recursive build would need one frame per gate
	if got := clean.Size(); got != depth {
		t.Fatalf("cleanup kept %d gates, want %d", got, depth)
	}
	if got := m.Depth(); got != depth {
		t.Fatalf("depth = %d, want %d", got, depth)
	}
	nodes := m.ConeNodes(g.ID(), []ID{x.ID(), y.ID()})
	if len(nodes) != depth {
		t.Fatalf("cone holds %d gates, want %d", len(nodes), depth)
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Fatal("ConeNodes result not ascending")
		}
	}
	fo := m.FanoutCounts()
	roots := m.FFRRoots(fo) // recursive find would walk the chain once per node
	for _, id := range nodes {
		if roots[id] != g.ID() {
			t.Fatalf("gate %d has FFR root %d, want the chain head %d", id, roots[id], g.ID())
		}
	}
	if !m.ConeIsReplaceable(g.ID(), []ID{x.ID(), y.ID()}, fo) {
		t.Fatal("single-fanout chain must be replaceable")
	}
}

// TestWorkspaceConeAnalysesMatchFresh cross-checks the epoch-stamped
// workspace variants against the allocation-per-call reference behaviour
// on random graphs, including immediately repeated queries that stress the
// epoch invalidation.
func TestWorkspaceConeAnalysesMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	w := NewWorkspace()
	for trial := 0; trial < 50; trial++ {
		m := randomStrashedMIG(rng, 5, 40)
		fo := m.FanoutCounts()
		for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
			root := ID(id)
			f := m.Fanin(root)
			leaves := []ID{f[0].ID(), f[1].ID(), f[2].ID()}
			for rep := 0; rep < 2; rep++ {
				got := append([]ID(nil), m.ConeNodesWS(w, root, leaves)...)
				slices.Sort(got)
				want := m.ConeNodes(root, leaves)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d node %d: cone %v, want %v", trial, id, got, want)
				}
				gotRep := m.ConeSelfContainedWS(w, m.ConeNodesWS(w, root, leaves), root, fo)
				if wantRep := m.ConeIsReplaceable(root, leaves, fo); gotRep != wantRep {
					t.Fatalf("trial %d node %d: replaceable %v, want %v", trial, id, gotRep, wantRep)
				}
			}
		}
	}
}

// randomStrashedMIG builds a random DAG for the workspace cross-checks.
func randomStrashedMIG(rng *rand.Rand, pis, gates int) *MIG {
	m := New(pis)
	sigs := []Lit{Const0}
	for i := 0; i < pis; i++ {
		sigs = append(sigs, m.Input(i))
	}
	for g := 0; g < gates; g++ {
		pick := func() Lit { return sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 0) }
		sigs = append(sigs, m.Maj(pick(), pick(), pick()))
	}
	m.AddOutput(sigs[len(sigs)-1])
	return m
}

// TestStrashTableGrowAndClone hammers the open-addressing strash through
// several growth cycles and checks clones stay independent.
func TestStrashTableGrowAndClone(t *testing.T) {
	m := New(8)
	var sigs []Lit
	for i := 0; i < 8; i++ {
		sigs = append(sigs, m.Input(i))
	}
	rng := rand.New(rand.NewSource(59))
	for g := 0; g < 5000; g++ {
		a := sigs[rng.Intn(len(sigs))]
		b := sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 0)
		c := sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 0)
		sigs = append(sigs, m.Maj(a, b, c))
	}
	before := m.NumGates()
	c := m.Clone()
	// Re-creating any existing gate on either copy must hit the table.
	for g := 0; g < 1000; g++ {
		id := ID(m.NumPIs() + 1 + rng.Intn(before))
		f := m.Fanin(id)
		if got := m.Maj(f[0], f[1], f[2]); got.ID() != id {
			t.Fatalf("strash miss on original: gate %d rebuilt as %v", id, got)
		}
		if got := c.Maj(f[0], f[1], f[2]); got.ID() != id {
			t.Fatalf("strash miss on clone: gate %d rebuilt as %v", id, got)
		}
	}
	// Divergent growth: new gates on the clone must not leak into m.
	n := m.NumGates()
	c.Maj(sigs[len(sigs)-1], sigs[0], sigs[1].Not())
	if m.NumGates() != n {
		t.Fatal("clone shares gate storage with the original")
	}
}

// TestReserve: a graph built after reserve never reallocates its nodes or
// rehashes its strash, and is node for node the graph an unreserved build
// makes; reserving again mid-build keeps every existing gate findable.
func TestReserve(t *testing.T) {
	src := randomStrashedMIG(rand.New(rand.NewSource(61)), 8, 3000)
	build := func(reserve bool) *MIG {
		m := New(src.NumPIs())
		if reserve {
			m.reserve(src.NumGates())
		}
		nodes, slots := cap(m.fanin), len(m.strash.ids)
		sig := make([]Lit, src.NumNodes())
		for i := 0; i < src.NumPIs(); i++ {
			sig[src.Input(i).ID()] = m.Input(i)
		}
		at := func(l Lit) Lit { return sig[l.ID()].NotIf(l.Comp()) }
		for id := src.NumPIs() + 1; id < src.NumNodes(); id++ {
			f := src.Fanin(ID(id))
			sig[id] = m.Maj(at(f[0]), at(f[1]), at(f[2]))
		}
		for _, o := range src.Outputs() {
			m.AddOutput(at(o))
		}
		if reserve && (cap(m.fanin) != nodes || len(m.strash.ids) != slots) {
			t.Errorf("reserved build grew: %d→%d node slots, %d→%d strash slots",
				nodes, cap(m.fanin), slots, len(m.strash.ids))
		}
		return m
	}
	plain, reserved := build(false), build(true)
	var a, b bytes.Buffer
	if err := plain.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := reserved.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("reserve changed the graph")
	}
	reserved.reserve(10 * reserved.NumGates())
	for id := reserved.NumPIs() + 1; id < reserved.NumNodes(); id++ {
		f := reserved.Fanin(ID(id))
		if got := reserved.Maj(f[0], f[1], f[2]); got.ID() != ID(id) {
			t.Fatalf("after a second reserve, gate %d rebuilt as %v", id, got)
		}
	}
}
