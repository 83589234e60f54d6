package cut

import (
	"fmt"
	"math/bits"

	"mighash/internal/mig"
)

// MaxK is the largest supported cut width; 6 covers both the 4-input
// rewriting cuts and the 6-input LUT mapping cuts.
const MaxK = 6

// Cut is a set of at most MaxK leaves, sorted ascending. Sig is a 64-bit
// Bloom-style signature for fast subset tests.
//
// TT is the function of the cut root over the leaves — leaf i is variable
// i — stored expanded to 5 variables (unused upper variables are
// don't-cares), so it equals mig.ConeTT(root, leaves).Expand(5).Bits. It
// is computed incrementally during enumeration from the child cuts' truth
// tables and is only populated when enumerating with K <= 5; wider
// enumerations (LUT mapping) leave it zero. For cuts of at most four
// leaves the low 16 bits are exactly the 4-variable table (expansion
// duplicates the halves), which is what the K = 4 rewriting path reads.
type Cut struct {
	Sig uint64
	TT  uint32
	N   uint8
	L   [MaxK]mig.ID
}

// Leaves returns the leaf IDs of the cut in ascending order. The slice
// aliases the cut's storage.
func (c *Cut) Leaves() []mig.ID { return c.L[:c.N] }

// String renders the cut as {id id ...}.
func (c *Cut) String() string {
	s := "{"
	for i := uint8(0); i < c.N; i++ {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprint(c.L[i])
	}
	return s + "}"
}

func sigOf(id mig.ID) uint64 { return 1 << (uint(id) & 63) }

// proj5[i] is the truth table of variable i over 5 variables, the 32-bit
// analogue of tt.Var(5, i).
var proj5 = [5]uint32{0xAAAAAAAA, 0xCCCCCCCC, 0xF0F0F0F0, 0xFF00FF00, 0xFFFF0000}

// ttVar0 is the truth table of a single-leaf cut: variable 0 expanded to
// 5 variables.
const ttVar0 = 0xAAAAAAAA

// swapTT exchanges variables i < j of a 5-variable truth table; the
// 32-bit counterpart of tt.SwapVars.
func swapTT(bits uint32, i, j int) uint32 {
	pi, pj := proj5[i], proj5[j]
	sh := uint(1)<<uint(j) - uint(1)<<uint(i)
	keep := bits & (pi&pj | ^pi&^pj)
	up := (bits & pi &^ pj) << sh
	down := (bits & pj &^ pi) >> sh
	return keep | up | down
}

// stretchTT re-expresses the truth table of child cut c over the leaf
// positions of the merged cut d (c.L ⊆ d.L, both sorted). Because both
// leaf lists are ascending, variable i of c moves to a position p_i >= i
// with p_0 < p_1 < ..., so — walking from the highest variable down —
// each move is a swap with a position currently holding a don't-care
// variable, which in the expanded-to-5 representation is exact.
func stretchTT(c, d *Cut) uint32 {
	bits := c.TT
	j := int(d.N)
	for i := int(c.N) - 1; i >= 0; i-- {
		for j--; d.L[j] != c.L[i]; j-- {
		}
		if j != i {
			bits = swapTT(bits, i, j)
		}
	}
	return bits
}

// mergedTT computes the truth table of a gate over the leaves of the
// merged cut out: each child cut's function is stretched onto out's leaf
// positions, complemented per the fanin edge, and combined by majority.
func mergedTT(f [3]mig.Lit, a, b, c, out *Cut) uint32 {
	ta := stretchTT(a, out)
	if f[0].Comp() {
		ta = ^ta
	}
	tb := stretchTT(b, out)
	if f[1].Comp() {
		tb = ^tb
	}
	tc := stretchTT(c, out)
	if f[2].Comp() {
		tc = ^tc
	}
	return ta&tb | ta&tc | tb&tc
}

// subsetOf reports whether c ⊆ d.
func (c *Cut) subsetOf(d *Cut) bool {
	if c.N > d.N || c.Sig&^d.Sig != 0 {
		return false
	}
	i, j := uint8(0), uint8(0)
	for i < c.N {
		for j < d.N && d.L[j] < c.L[i] {
			j++
		}
		if j >= d.N || d.L[j] != c.L[i] {
			return false
		}
		i++
		j++
	}
	return true
}

// merge3 computes the union of three sorted cuts, failing when it exceeds k.
func merge3(a, b, c *Cut, k int) (Cut, bool) {
	var out Cut
	i, j, l := uint8(0), uint8(0), uint8(0)
	for i < a.N || j < b.N || l < c.N {
		best := mig.ID(^uint32(0))
		if i < a.N && a.L[i] < best {
			best = a.L[i]
		}
		if j < b.N && b.L[j] < best {
			best = b.L[j]
		}
		if l < c.N && c.L[l] < best {
			best = c.L[l]
		}
		if int(out.N) >= k {
			return Cut{}, false
		}
		out.L[out.N] = best
		out.N++
		if i < a.N && a.L[i] == best {
			i++
		}
		if j < b.N && b.L[j] == best {
			j++
		}
		if l < c.N && c.L[l] == best {
			l++
		}
	}
	out.Sig = a.Sig | b.Sig | c.Sig
	return out, true
}

// Options configures the enumeration.
type Options struct {
	K       int // maximum leaves per cut (2..MaxK); default 4
	MaxCuts int // cuts kept per node, excluding the trivial cut; default 24
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 4
	}
	if o.K < 2 || o.K > MaxK {
		panic(fmt.Sprintf("cut: unsupported cut width %d", o.K))
	}
	if o.MaxCuts == 0 {
		o.MaxCuts = 24
	}
	return o
}

// Enumerate computes the cut sets of every node of m. The result is
// indexed by node ID; terminals get their defining cuts and every gate's
// set ends with the trivial cut {g}. With K <= 5 every cut also carries
// its truth table (see Cut.TT).
//
// Enumerate allocates fresh cut sets the caller may retain; the rewrite
// hot path reuses one workspace's storage across passes through
// Workspace.Enumerate.
func Enumerate(m *mig.MIG, opts Options) [][]Cut {
	return new(Workspace).Enumerate(m, opts)
}

// blockCuts caps the cuts of one storage block (640 KB): large enough
// that a block change is rare, small enough that the unused part of the
// last block stays a small share of a large graph's cuts.
const blockCuts = 1 << 14

// Workspace owns the cut storage of repeated enumerations. The cut sets
// lie in blocks, each node's set contiguous inside one block and the
// sets in node order, and the next Enumerate call refills the same
// blocks, so steady-state enumeration allocates nothing. The first
// block is sized from the first graph's node count (every node keeps at
// least one cut) and each block added later doubles the one before, up
// to blockCuts, so the storage exceeds the cuts kept by at most one
// block plus the tail a set too large for its block's remainder leaves
// there. The sets returned by Workspace.Enumerate alias the blocks and
// are invalidated by the next Enumerate on the same Workspace; a
// Workspace must not be used by two goroutines at once.
type Workspace struct {
	sets   [][]Cut
	blocks [][]Cut // storage; a block's length is its fill by the current call
	cur    int     // the block being filled
	buf    []Cut   // the set being merged
	// Work counts of the last Enumerate, which tests pin exactly: the
	// child-cut triples whose signature union was tested, and the merge
	// walks of the triples that passed.
	tested, walks int
}

// NewWorkspace returns an empty enumeration workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Enumerate is the block-backed version of the package-level Enumerate.
func (w *Workspace) Enumerate(m *mig.MIG, opts Options) [][]Cut {
	opts = opts.withDefaults()
	n := m.NumNodes()
	if cap(w.sets) < n {
		w.sets = make([][]Cut, n)
	}
	// Every set is capped at MaxCuts plus the trivial cut, which bounds
	// the merge buffer.
	if cap(w.buf) < opts.MaxCuts+1 {
		w.buf = make([]Cut, 0, opts.MaxCuts+1)
	}
	if len(w.blocks) == 0 {
		w.blocks = append(w.blocks, make([]Cut, 0, min(max(n, opts.MaxCuts+1), blockCuts)))
	}
	for i := range w.blocks {
		w.blocks[i] = w.blocks[i][:0]
	}
	w.cur = 0
	sets := w.sets[:n]
	w.tested, w.walks = 0, 0
	withTT := opts.K <= 5
	sets[0] = w.keep(Cut{}) // constant node: the empty cut
	for i := 0; i < m.NumPIs(); i++ {
		id := m.Input(i).ID()
		c := Cut{Sig: sigOf(id), N: 1, L: [MaxK]mig.ID{id}}
		if withTT {
			c.TT = ttVar0
		}
		sets[id] = w.keep(c)
	}
	for id := m.NumPIs() + 1; id < n; id++ {
		gid := mig.ID(id)
		f := m.Fanin(gid)
		merged := w.mergeSets(w.buf[:0], sets[f[0].ID()], sets[f[1].ID()], sets[f[2].ID()], f, gid, opts, withTT)
		sets[id] = w.keep(merged...)
	}
	return sets
}

// keep stores a finished set after the sets before it and returns the
// stored copy. A set that does not fit in the rest of the current block
// starts the next one, which is added when no earlier call left one
// large enough.
func (w *Workspace) keep(set ...Cut) []Cut {
	b := w.blocks[w.cur]
	if cap(b)-len(b) < len(set) {
		w.cur++
		if w.cur == len(w.blocks) {
			w.blocks = append(w.blocks, nil)
		}
		if cap(w.blocks[w.cur]) < len(set) {
			w.blocks[w.cur] = make([]Cut, 0, max(min(2*cap(b), blockCuts), len(set)))
		}
		b = w.blocks[w.cur]
	}
	start := len(b)
	b = append(b, set...)
	w.blocks[w.cur] = b
	return b[start:len(b):len(b)]
}

// mergeSets computes the saturating union of the three child cut sets with
// irredundancy filtering and capping, then appends the trivial cut. out
// must be empty with capacity for MaxCuts+1 cuts, so that no append
// reallocates it.
//
// Two signature prefilters skip infeasible merges before any leaf is
// compared: every leaf sets one signature bit, so a union with more than
// K set bits has more than K distinct leaves. Collisions only under-count,
// so neither test rejects a feasible merge. The pair test runs once per
// (a, b) and skips the whole c loop; the triple test guards the merge
// walk. The truth table is computed only for a cut the set keeps.
func (w *Workspace) mergeSets(out []Cut, sa, sb, sc []Cut, f [3]mig.Lit, root mig.ID, opts Options, withTT bool) []Cut {
	k := opts.K
	tested, walks := 0, 0
	for ia := range sa {
		a := &sa[ia]
		for ib := range sb {
			b := &sb[ib]
			ab := a.Sig | b.Sig
			if bits.OnesCount64(ab) > k {
				continue
			}
			tested += len(sc)
			for ic := range sc {
				c := &sc[ic]
				if bits.OnesCount64(ab|c.Sig) > k {
					continue
				}
				walks++
				u, ok := merge3(a, b, c, k)
				if !ok {
					continue
				}
				if kept := addIrredundant(&out, &u, opts.MaxCuts); kept != nil && withTT {
					kept.TT = mergedTT(f, a, b, c, kept)
				}
			}
		}
	}
	w.tested += tested
	w.walks += walks
	triv := Cut{Sig: sigOf(root), N: 1, L: [MaxK]mig.ID{root}}
	if withTT {
		triv.TT = ttVar0
	}
	return append(out, triv)
}

// addIrredundant inserts c into *set unless it is dominated by an existing
// cut; cuts dominated by c are removed. The set is capped at maxCuts,
// preferring cuts with fewer leaves. It returns the slot c now occupies,
// or nil when c was not kept.
func addIrredundant(set *[]Cut, c *Cut, maxCuts int) *Cut {
	s := *set
	for i := range s {
		if s[i].subsetOf(c) {
			return nil // dominated: an existing cut is contained in c
		}
	}
	n := 0
	for i := range s {
		if !c.subsetOf(&s[i]) {
			s[n] = s[i]
			n++
		}
	}
	s = s[:n]
	if len(s) < maxCuts {
		// Keep the set ordered by leaf count so capping drops wide cuts
		// last-in first.
		pos := len(s)
		for pos > 0 && s[pos-1].N > c.N {
			pos--
		}
		s = append(s, Cut{})
		copy(s[pos+1:], s[pos:])
		s[pos] = *c
		*set = s
		return &s[pos]
	}
	*set = s
	// Set full: replace the widest cut if c is narrower.
	if s[len(s)-1].N > c.N {
		pos := len(s) - 1
		for pos > 0 && s[pos-1].N > c.N {
			pos--
		}
		copy(s[pos+1:], s[pos:len(s)-1])
		s[pos] = *c
		return &s[pos]
	}
	return nil
}
