package mig

import (
	"fmt"
	"slices"
	"strconv"
)

// ID identifies a node. ID 0 is the constant-0 terminal.
type ID uint32

// Lit is a signal: a node ID with a complement bit in the lowest position.
type Lit uint32

// The two constant signals.
const (
	Const0 Lit = 0 // the constant-0 node, plain
	Const1 Lit = 1 // the constant-0 node, complemented
)

// MakeLit returns the signal for node id, complemented if comp is set.
func MakeLit(id ID, comp bool) Lit {
	l := Lit(id) << 1
	if comp {
		l |= 1
	}
	return l
}

// ID returns the node the signal points to.
func (l Lit) ID() ID { return ID(l >> 1) }

// Comp reports whether the signal is complemented.
func (l Lit) Comp() bool { return l&1 == 1 }

// Not returns the complemented signal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf returns the signal complemented when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// String renders the signal as the node ID, prefixed with ~ if complemented.
func (l Lit) String() string {
	if l.Comp() {
		return fmt.Sprintf("~%d", l.ID())
	}
	return fmt.Sprintf("%d", l.ID())
}

type strashKey [3]Lit

// MIG is a majority-inverter graph. Create instances with New.
type MIG struct {
	fanin   [][3]Lit // per-node children; unused for terminals
	level   []int32  // per-node level, set when the node is made
	numPI   int
	strash  strashTable
	outputs []Lit
}

// New returns an MIG with numPIs primary inputs and no gates or outputs.
func New(numPIs int) *MIG {
	if numPIs < 0 {
		panic("mig: negative number of inputs")
	}
	return &MIG{fanin: make([][3]Lit, 1+numPIs), level: make([]int32, 1+numPIs), numPI: numPIs}
}

// Reset empties m into the graph New(numPIs) returns, keeping the node
// storage and the strash slots, so a builder reused pass after pass stops
// regrowing them. Graphs made from m by Compact or Clone own their
// storage and are unaffected.
func (m *MIG) Reset(numPIs int) {
	if numPIs < 0 {
		panic("mig: negative number of inputs")
	}
	m.fanin = slices.Grow(m.fanin[:0], 1+numPIs)[:1+numPIs]
	clear(m.fanin)
	m.level = slices.Grow(m.level[:0], 1+numPIs)[:1+numPIs]
	clear(m.level)
	m.numPI = numPIs
	m.outputs = m.outputs[:0]
	m.strash.n = 0
	clear(m.strash.ids)
}

// reserve makes room for gates more gates: the node storage and the
// structural-hashing table are grown once, so building that many gates
// neither reallocates nor rehashes. It changes no node, literal or
// lookup result. Only ReadBENCH calls it, with the number of gates its
// gate lines lower to (exact for a written netlist): presizing a pass
// output from its input's gate count kept the full-size table live for
// the whole pass and raised peak memory.
func (m *MIG) reserve(gates int) {
	m.fanin = slices.Grow(m.fanin, gates)
	m.level = slices.Grow(m.level, gates)
	if m.strash.ids == nil {
		m.strash.fill(m, gates)
		return
	}
	m.strash.reserve(m.strash.n + gates)
}

// NumPIs returns the number of primary inputs.
func (m *MIG) NumPIs() int { return m.numPI }

// NumPOs returns the number of primary outputs.
func (m *MIG) NumPOs() int { return len(m.outputs) }

// NumNodes returns the total number of nodes including terminals and any
// dead gates.
func (m *MIG) NumNodes() int { return len(m.fanin) }

// NumGates returns the total number of gate nodes, including gates no
// longer reachable from the outputs; Size reports the live count.
func (m *MIG) NumGates() int { return len(m.fanin) - 1 - m.numPI }

// Input returns the signal of primary input i (0-based).
func (m *MIG) Input(i int) Lit {
	if i < 0 || i >= m.numPI {
		panic(fmt.Sprintf("mig: input %d out of range (have %d)", i, m.numPI))
	}
	return MakeLit(ID(i+1), false)
}

// IsGate reports whether id is a majority gate.
func (m *MIG) IsGate(id ID) bool { return int(id) > m.numPI && int(id) < len(m.fanin) }

// IsInput reports whether id is a primary input.
func (m *MIG) IsInput(id ID) bool { return id >= 1 && int(id) <= m.numPI }

// InputIndex returns the 0-based index of the primary input id.
func (m *MIG) InputIndex(id ID) int {
	if !m.IsInput(id) {
		panic(fmt.Sprintf("mig: node %d is not an input", id))
	}
	return int(id) - 1
}

// Fanin returns the three children of gate id.
func (m *MIG) Fanin(id ID) [3]Lit {
	if !m.IsGate(id) {
		panic(fmt.Sprintf("mig: node %d is not a gate", id))
	}
	return m.fanin[id]
}

// Level returns the level of node id: 0 for the terminals and one more
// than the deepest fanin for a gate, so depth counts visited gates as in
// the paper. Levels are stored when a node is made, so this is a load.
func (m *MIG) Level(id ID) int { return int(m.level[id]) }

// Maj returns the signal computing 〈abc〉, creating a gate unless the
// result simplifies or an equivalent gate already exists.
func (m *MIG) Maj(a, b, c Lit) Lit {
	m.checkLit(a)
	m.checkLit(b)
	m.checkLit(c)
	key, neg, lit, done := majNorm(a, b, c)
	if done {
		return lit
	}
	if m.strash.ids == nil {
		// The first Maj on a graph New, Compact or Clone made without a
		// strash indexes the gates it already has.
		m.strash.fill(m, 0)
	}
	if id, ok := m.strash.lookup(key); ok {
		return MakeLit(id, neg)
	}
	id := ID(len(m.fanin))
	m.fanin = append(m.fanin, [3]Lit(key))
	m.level = append(m.level, 1+max(m.level[key[0].ID()], m.level[key[1].ID()], m.level[key[2].ID()]))
	m.strash.insert(key, id)
	return MakeLit(id, neg)
}

// majNorm runs Maj's operand normalization: axiom simplification (done
// with the resolved literal), or the polarity-minimal strash key and
// output negation of the gate to look up or create.
func majNorm(a, b, c Lit) (key strashKey, neg bool, lit Lit, done bool) {
	// Sort operands (majority is fully symmetric).
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	// Majority axiom Ω.M: 〈aab〉 = a, 〈aāb〉 = b. After sorting, equal or
	// complementary literals are adjacent.
	if a == b || b == c {
		return strashKey{}, false, b, true
	}
	if a == b.Not() {
		return strashKey{}, false, c, true
	}
	if b == c.Not() {
		return strashKey{}, false, a, true
	}
	// Inverter canonicalization via self-duality 〈abc〉 = ¬〈āb̄c̄〉: store
	// the polarity-minimal version. Flipping complement bits cannot change
	// the operand order because all IDs are distinct here.
	if int(a&1)+int(b&1)+int(c&1) >= 2 {
		a, b, c = a^1, b^1, c^1
		neg = true
	}
	return strashKey{a, b, c}, neg, 0, false
}

func (m *MIG) checkLit(l Lit) {
	if int(l.ID()) >= len(m.fanin) {
		panic(fmt.Sprintf("mig: literal %v refers to nonexistent node", l))
	}
}

// And returns a∧b = 〈0ab〉.
func (m *MIG) And(a, b Lit) Lit { return m.Maj(Const0, a, b) }

// Or returns a∨b = 〈1ab〉.
func (m *MIG) Or(a, b Lit) Lit { return m.Maj(Const1, a, b) }

// Xor returns a⊕b, built from three majority gates.
func (m *MIG) Xor(a, b Lit) Lit {
	return m.And(m.Or(a, b), m.And(a, b).Not())
}

// Mux returns s ? a : b.
func (m *MIG) Mux(s, a, b Lit) Lit {
	return m.Or(m.And(s, a), m.And(s.Not(), b))
}

// FullAdder returns (sum, carry) of a+b+cin using the classic 3-gate MIG of
// Fig. 1 of the paper: carry = 〈a b cin〉 and sum = 〈c̄arry cin 〈a b c̄in〉〉.
func (m *MIG) FullAdder(a, b, cin Lit) (sum, carry Lit) {
	carry = m.Maj(a, b, cin)
	sum = m.Maj(carry.Not(), cin, m.Maj(a, b, cin.Not()))
	return sum, carry
}

// AddOutput appends a primary output pointing at l and returns its index.
func (m *MIG) AddOutput(l Lit) int {
	m.checkLit(l)
	m.outputs = append(m.outputs, l)
	return len(m.outputs) - 1
}

// Output returns the signal of primary output i.
func (m *MIG) Output(i int) Lit { return m.outputs[i] }

// Outputs returns the output signals. The slice is owned by the MIG.
func (m *MIG) Outputs() []Lit { return m.outputs }

// SetOutput redirects primary output i to l.
func (m *MIG) SetOutput(i int, l Lit) {
	m.checkLit(l)
	m.outputs[i] = l
}

// Size returns the number of majority gates reachable from the outputs —
// the "size" metric of the paper. Fanins have smaller IDs than their
// gate, so one descending sweep marks everything reachable.
func (m *MIG) Size() int {
	seen := make([]bool, len(m.fanin))
	for _, o := range m.outputs {
		seen[o.ID()] = true
	}
	count := 0
	for id := len(m.fanin) - 1; id > m.numPI; id-- {
		if !seen[id] {
			continue
		}
		count++
		for _, ch := range m.fanin[id] {
			seen[ch.ID()] = true
		}
	}
	return count
}

// Depth returns the maximum output level.
func (m *MIG) Depth() int {
	d := 0
	for _, o := range m.outputs {
		d = max(d, m.Level(o.ID()))
	}
	return d
}

// FanoutCounts returns, for every node, the number of references from
// gates that are reachable from the outputs, plus one per primary output
// pointing at the node. A gate is reachable exactly when its count is
// positive, and all its references come from higher IDs, so one
// descending sweep counts them.
func (m *MIG) FanoutCounts() []int { return m.FanoutCountsWS(new(Workspace)) }

// FanoutCountsWS is FanoutCounts into w's storage. The result aliases w
// and is valid until the next FanoutCountsWS on w.
func (m *MIG) FanoutCountsWS(w *Workspace) []int {
	w.fo = cleared(w.fo, len(m.fanin))
	fo := w.fo
	for _, o := range m.outputs {
		fo[o.ID()]++
	}
	for id := len(m.fanin) - 1; id > m.numPI; id-- {
		if fo[id] == 0 {
			continue
		}
		for _, ch := range m.fanin[id] {
			fo[ch.ID()]++
		}
	}
	return fo
}

// Compact returns a compacted copy containing only nodes reachable from
// the outputs, with the same inputs and outputs (in order). Reachability
// is marked by one descending sweep and the copy by one ascending sweep —
// fanins always have smaller IDs than their gate — so arbitrarily deep
// graphs compact without recursion.
//
// The copy relabels the live gates in ascending order and builds no
// strash. Every stored triple was made by Maj, so it is canonical and
// distinct from every other (Check verifies both), and an order-
// preserving injective relabelling keeps both properties: the copy is
// node for node the graph rebuilding each gate through Maj would give.
// A live gate's fanins are live, so its level is copied unchanged. The
// copy's first Maj indexes it.
func (m *MIG) Compact() *MIG { return m.CompactWS(new(Workspace)) }

// CompactWS is Compact with its old-to-new ID map in w's storage; the
// copy shares nothing with w or m.
func (m *MIG) CompactWS(w *Workspace) *MIG { return m.compact(w, m.outputs) }

// Cone returns the compacted single-output graph of output i: the gates
// of its transitive fanin cone, copied as Compact copies them, over all
// of m's inputs, so the cones of one graph stay input-compatible.
func (m *MIG) Cone(i int) *MIG { return m.compact(new(Workspace), m.outputs[i:i+1]) }

// compact is Compact of the graph whose outputs are outs.
func (m *MIG) compact(w *Workspace, outs []Lit) *MIG {
	// nid maps each old node to its ID in the copy; before the copy sweep
	// a nonzero entry only marks a live gate.
	w.nid = cleared(w.nid, len(m.fanin))
	nid := w.nid
	for _, o := range outs {
		nid[o.ID()] = 1
	}
	live := 0
	for id := len(m.fanin) - 1; id > m.numPI; id-- {
		if nid[id] == 0 {
			continue
		}
		live++
		for _, ch := range m.fanin[id] {
			nid[ch.ID()] = 1
		}
	}
	for id := 0; id <= m.numPI; id++ {
		nid[id] = ID(id)
	}
	relabel := func(l Lit) Lit { return MakeLit(nid[l.ID()], l.Comp()) }
	out := &MIG{
		fanin:   make([][3]Lit, 1+m.numPI, 1+m.numPI+live),
		level:   make([]int32, 1+m.numPI, 1+m.numPI+live),
		numPI:   m.numPI,
		outputs: make([]Lit, len(outs)),
	}
	for id := m.numPI + 1; id < len(m.fanin); id++ {
		if nid[id] == 0 {
			continue
		}
		f := m.fanin[id]
		nid[id] = ID(len(out.fanin))
		out.fanin = append(out.fanin, [3]Lit{relabel(f[0]), relabel(f[1]), relabel(f[2])})
		out.level = append(out.level, m.level[id])
	}
	for i, o := range outs {
		out.outputs[i] = relabel(o)
	}
	return out
}

// Clone returns a deep copy of the MIG. A graph without a strash (see
// Compact) clones into one without a strash.
func (m *MIG) Clone() *MIG {
	return &MIG{
		fanin:   append([][3]Lit(nil), m.fanin...),
		level:   append([]int32(nil), m.level...),
		numPI:   m.numPI,
		strash:  m.strash.clone(),
		outputs: append([]Lit(nil), m.outputs...),
	}
}

// Stats summarizes an MIG for reporting.
type Stats struct {
	PIs, POs, Size, Depth int
}

// Stats returns the current statistics of the MIG.
func (m *MIG) Stats() Stats {
	return Stats{PIs: m.numPI, POs: len(m.outputs), Size: m.Size(), Depth: m.Depth()}
}

// String renders "i/o=<PIs>/<POs> size=<Size> depth=<Depth>", the header
// of every written BENCH netlist.
func (s Stats) String() string { return string(s.appendTo(make([]byte, 0, 48))) }

// appendTo appends the String form to b. It appends with strconv rather
// than formatting with fmt, whose boxing allocates for values above 255,
// so WriteBENCH allocates the same whatever the size of the graph.
func (s Stats) appendTo(b []byte) []byte {
	b = strconv.AppendInt(append(b, "i/o="...), int64(s.PIs), 10)
	b = strconv.AppendInt(append(b, '/'), int64(s.POs), 10)
	b = strconv.AppendInt(append(b, " size="...), int64(s.Size), 10)
	return strconv.AppendInt(append(b, " depth="...), int64(s.Depth), 10)
}
