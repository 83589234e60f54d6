package depthopt

import (
	"fmt"
	"slices"
	"time"

	"mighash/internal/mig"
)

// Options tunes the optimization loop.
type Options struct {
	// MaxPasses caps the rebuild passes (default 12; the loop stops early
	// at a fixpoint).
	MaxPasses int
	// SizeFactor hard-caps the result at SizeFactor × the original gate
	// count (default 1.2). Reassociations are only taken while the rebuild
	// provably stays below the cap, so a factor of 1 forbids any growth.
	SizeFactor float64
}

func (o Options) withDefaults() Options {
	if o.MaxPasses == 0 {
		o.MaxPasses = 12
	}
	if o.SizeFactor == 0 {
		o.SizeFactor = 1.2
	}
	return o
}

// Stats reports one Optimize call.
type Stats struct {
	SizeBefore, SizeAfter   int
	DepthBefore, DepthAfter int
	Passes                  int
	Elapsed                 time.Duration
}

func (s Stats) String() string {
	return fmt.Sprintf("depthopt: size %d→%d, depth %d→%d, %d passes, %v",
		s.SizeBefore, s.SizeAfter, s.DepthBefore, s.DepthAfter, s.Passes, s.Elapsed)
}

// Optimize returns a depth-optimized copy of m.
func Optimize(m *mig.MIG, opt Options) (*mig.MIG, Stats) {
	opt = opt.withDefaults()
	start := time.Now()
	st := Stats{SizeBefore: m.Size(), DepthBefore: m.Depth()}
	limit := int(float64(st.SizeBefore) * opt.SizeFactor)
	if limit < st.SizeBefore {
		limit = st.SizeBefore
	}
	// Every rebuild pass reuses one builder, with its scratch, and each
	// graph's size is known once: the input's from above, a pass result's
	// from its gate count.
	b := &builder{out: mig.New(m.NumPIs()), limit: limit, scratch: mig.NewWorkspace()}
	cur, size, depth := m, st.SizeBefore, st.DepthBefore
	for pass := 0; pass < opt.MaxPasses; pass++ {
		next := onePass(b, cur)
		nextSize, nextDepth := next.NumGates(), next.Depth() // compacted: every gate is live
		st.Passes = pass + 1
		improved := nextDepth < depth
		if improved || (nextDepth == depth && nextSize < size) {
			cur, size, depth = next, nextSize, nextDepth
		}
		if !improved {
			break
		}
	}
	st.SizeAfter = size
	st.DepthAfter = depth
	st.Elapsed = time.Since(start)
	return cur, st
}

// builder tracks the output graph, whose levels are the arrival times,
// and the size cap of the current pass. One builder serves every pass of
// an Optimize call, and so do its per-node arrays.
type builder struct {
	out       *mig.MIG
	limit     int  // maximum gates the pass may produce
	remaining int  // original gates still to be rebuilt after the current one
	critical  bool // the gate being rebuilt lies on an original critical path

	scratch *mig.Workspace // fanout counts of the input, compaction of the result
	lmap    []mig.Lit      // input node → its rebuilt signal
	req     []int32        // criticalNodes: required level per node
	crit    []bool         // criticalNodes: zero-slack gates
}

// allow reports whether a plan producing at most planMax gates for the
// current original gate keeps the final size under the cap, assuming every
// remaining gate rebuilds to at most one gate (true for the default plan).
func (b *builder) allow(planMax int) bool {
	return b.out.NumGates()+planMax+b.remaining <= b.limit
}

func (b *builder) level(l mig.Lit) int { return b.out.Level(l.ID()) }

// arrival of a would-be gate over the given operands.
func (b *builder) arr(ops ...mig.Lit) int {
	best := 0
	for _, o := range ops {
		if v := b.level(o); v > best {
			best = v
		}
	}
	return best + 1
}

// innerOf returns the fanins of g's gate with g's edge complement pushed
// inside (self-duality: 〈abc〉' = 〈a'b'c'〉), so rewriting can treat every
// child gate as plain.
func (b *builder) innerOf(g mig.Lit) ([3]mig.Lit, bool) {
	if !b.out.IsGate(g.ID()) {
		return [3]mig.Lit{}, false
	}
	f := b.out.Fanin(g.ID())
	if g.Comp() {
		for i := range f {
			f[i] = f[i].Not()
		}
	}
	return f, true
}

// cleared returns s resized to n zero elements, reusing its storage when
// it has room and growing it as append would otherwise.
func cleared[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// onePass rebuilds m bottom-up in b, greedily minimizing each gate's
// arrival, and returns the compacted copy of the rebuild (b keeps its
// storage for the next pass).
func onePass(b *builder, m *mig.MIG) *mig.MIG {
	b.out.Reset(m.NumPIs())
	b.remaining = 0
	b.lmap = cleared(b.lmap, m.NumNodes())
	lmap := b.lmap
	lmap[0] = mig.Const0
	for i := 0; i < m.NumPIs(); i++ {
		lmap[m.Input(i).ID()] = b.out.Input(i)
	}
	fo := m.FanoutCountsWS(b.scratch)
	for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
		if fo[id] > 0 {
			b.remaining++
		}
	}
	// Zero-slack (critical) gates of the original graph: reassociation is
	// restricted to them so the size budget is spent where depth can
	// actually improve.
	slack0 := b.criticalNodes(m, fo)
	for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
		if fo[id] == 0 {
			continue
		}
		f := m.Fanin(mig.ID(id))
		var ops [3]mig.Lit
		for c := range f {
			ops[c] = lmap[f[c].ID()].NotIf(f[c].Comp())
		}
		b.remaining--
		b.critical = slack0[id]
		lmap[id] = rebuildGate(b, ops)
	}
	for _, o := range m.Outputs() {
		b.out.AddOutput(lmap[o.ID()].NotIf(o.Comp()))
	}
	return b.out.CompactWS(b.scratch)
}

// criticalNodes marks the gates with zero slack: level + longest path to
// an output equals the graph depth. The result is b's crit array.
func (b *builder) criticalNodes(m *mig.MIG, fo []int) []bool {
	n := m.NumNodes()
	depth := int32(m.Depth())
	b.req = cleared(b.req, n)
	req := b.req
	for i := range req {
		req[i] = depth + 1 // unconstrained
	}
	for _, o := range m.Outputs() {
		req[o.ID()] = depth
	}
	b.crit = cleared(b.crit, n)
	crit := b.crit
	for id := n - 1; id > m.NumPIs(); id-- {
		if fo[id] == 0 {
			continue
		}
		if int(req[id]) <= m.Level(mig.ID(id)) {
			crit[id] = true
		}
		for _, ch := range m.Fanin(mig.ID(id)) {
			if r := req[id] - 1; r < req[ch.ID()] {
				req[ch.ID()] = r
			}
		}
	}
	return crit
}

// plan is one reassociation of a gate: the operands of one of the two
// shapes the rules produce, with its arrival and its worst-case gate count.
type plan struct {
	arr      int
	maxGates int
	// distribute selects ⟨⟨a b c⟩ ⟨a b d⟩ e⟩ (distributivity) over
	// ⟨a b ⟨c d e⟩⟩ (both associativity rules).
	distribute bool
	ops        [5]mig.Lit // a … e
}

// emit builds the plan's gates, inner ones first.
func (pl *plan) emit(b *builder) mig.Lit {
	o := &pl.ops
	if pl.distribute {
		return b.out.Maj(b.out.Maj(o[0], o[1], o[2]), b.out.Maj(o[0], o[1], o[3]), o[4])
	}
	return b.out.Maj(o[0], o[1], b.out.Maj(o[2], o[3], o[4]))
}

// rebuildGate constructs 〈ops〉 with the arrival-minimizing reassociation.
func rebuildGate(b *builder, ops [3]mig.Lit) mig.Lit {
	bestArr := b.arr(ops[:]...)
	if !b.critical {
		return b.out.Maj(ops[0], ops[1], ops[2])
	}

	// Identify the unique deepest operand; reassociation only helps when
	// one input dominates the arrival.
	deep := 0
	for c := 1; c < 3; c++ {
		if b.level(ops[c]) > b.level(ops[deep]) {
			deep = c
		}
	}
	g := ops[deep]
	p, q := ops[(deep+1)%3], ops[(deep+2)%3]
	inner, isGate := b.innerOf(g)
	if !isGate {
		return b.out.Maj(ops[0], ops[1], ops[2])
	}

	// One slot per associativity rule and choice of the shared operand u,
	// plus one for distributivity: a strashed gate's fanins are distinct,
	// so each rule matches a given u at most once.
	var plans [5]plan
	np := 0

	// Associativity: 〈x u 〈y u z〉〉 = 〈z u 〈y u x〉〉 — needs a shared
	// operand u between the gate and its deepest child. Hoists the deepest
	// grandchild z next to the root.
	for _, ou := range [2][2]mig.Lit{{p, q}, {q, p}} {
		u, x := ou[0], ou[1]
		for i := 0; i < 3; i++ {
			if inner[i] != u {
				continue
			}
			ia, ib := inner[(i+1)%3], inner[(i+2)%3]
			z, y := ia, ib
			if b.level(ib) > b.level(ia) {
				z, y = ib, ia
			}
			arr := 1 + max3(b.level(z), b.level(u), 1+max3(b.level(y), b.level(u), b.level(x)))
			plans[np] = plan{arr: arr, maxGates: 2, ops: [5]mig.Lit{z, u, y, u, x}}
			np++
		}
	}

	// Complementary associativity: 〈x u 〈y ū z〉〉 = 〈x u 〈y x z〉〉 —
	// replaces a deep complemented shared operand inside the child by the
	// (possibly shallower) x.
	for _, ou := range [2][2]mig.Lit{{p, q}, {q, p}} {
		u, x := ou[0], ou[1]
		for i := 0; i < 3; i++ {
			if inner[i] != u.Not() {
				continue
			}
			y, z := inner[(i+1)%3], inner[(i+2)%3]
			arr := 1 + max3(b.level(x), b.level(u), 1+max3(b.level(y), b.level(x), b.level(z)))
			plans[np] = plan{arr: arr, maxGates: 2, ops: [5]mig.Lit{x, u, y, x, z}}
			np++
		}
	}

	// Distributivity R→L: 〈x y 〈u v z〉〉 = 〈〈x y u〉 〈x y v〉 z〉 — hoists the
	// deepest grandchild at the price of extra gates.
	{
		zi := 0
		for i := 1; i < 3; i++ {
			if b.level(inner[i]) > b.level(inner[zi]) {
				zi = i
			}
		}
		u, v, z := inner[(zi+1)%3], inner[(zi+2)%3], inner[zi]
		arr := 1 + max3(1+max3(b.level(p), b.level(q), b.level(u)),
			1+max3(b.level(p), b.level(q), b.level(v)),
			b.level(z))
		plans[np] = plan{arr: arr, maxGates: 3, distribute: true, ops: [5]mig.Lit{p, q, u, v, z}}
		np++
	}

	bestPlan := -1
	for i, pl := range plans[:np] {
		if pl.arr >= bestArr || !b.allow(pl.maxGates) {
			continue
		}
		if bestPlan < 0 || pl.arr < plans[bestPlan].arr ||
			(pl.arr == plans[bestPlan].arr && pl.maxGates < plans[bestPlan].maxGates) {
			bestPlan = i
		}
	}
	if bestPlan < 0 {
		return b.out.Maj(ops[0], ops[1], ops[2])
	}
	return plans[bestPlan].emit(b)
}

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
