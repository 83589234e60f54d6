// Package db holds the precomputed minimum-MIG database that drives
// functional hashing (Sec. IV of the paper): one minimum-size MIG per NPN
// class of 4-variable Boolean functions, 222 entries in total.
//
// The artifact shipped in data/npn4.txt is generated by cmd/migdb with the
// exact-synthesis engine of internal/exact and embedded at compile time.
// Loading re-verifies every entry by simulation, so a corrupted artifact
// cannot silently mis-optimize.
package db

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mighash/internal/mig"
	"mighash/internal/npn"
	"mighash/internal/tt"
)

// Entry is the minimum MIG of one NPN class representative over
// K = Rep.N inputs (4 for the precomputed database, 5 for the on-demand
// store). Node IDs use the same convention as internal/mig: 0 is the
// constant 0, 1..K are the inputs x1..xK, and K+1+l is majority gate l
// (0-based). Gates are stored in topological order.
type Entry struct {
	Rep   tt.TT        // class representative (K = Rep.N inputs)
	Gates [][3]mig.Lit // fanins of gate l, each a literal over the ID space above
	Out   mig.Lit      // output literal

	// Derived at load time.
	Depth     int    // gates on the longest output-to-terminal path
	LeafDepth [5]int // gates on the longest output-to-input-i path; -1 if unused
	GenTime   time.Duration

	// Alts holds alternative implementations of the same class with a
	// genuinely different size/depth tradeoff (each alternative is
	// strictly shallower than the minimum-size entry above, at the price
	// of extra gates). The choice-aware rewriter records one candidate
	// per alternative; the greedy variants ignore them. Alternatives are
	// derived algebraically (see deriveAlts) or restored from a
	// snapshot, and are always verified by simulation against Rep.
	Alts []Entry
}

// NumCandidates returns how many implementations this entry offers: the
// minimum-size primary plus its alternatives.
func (e *Entry) NumCandidates() int { return 1 + len(e.Alts) }

// Candidate returns implementation i: the primary entry for 0, Alts[i-1]
// otherwise.
func (e *Entry) Candidate(i int) *Entry {
	if i == 0 {
		return e
	}
	return &e.Alts[i-1]
}

// Size returns the number of majority gates, the paper's size metric C(f).
func (e *Entry) Size() int { return len(e.Gates) }

// K returns the input width of the entry (4 or 5).
func (e *Entry) K() int { return e.Rep.N }

// Eval simulates the entry and returns the function it computes, which
// must equal Rep for a well-formed database.
func (e *Entry) Eval() tt.TT {
	k := e.Rep.N
	vals := make([]tt.TT, 1+k+len(e.Gates))
	vals[0] = tt.Const0(k)
	for i := 0; i < k; i++ {
		vals[1+i] = tt.Var(k, i)
	}
	at := func(l mig.Lit) tt.TT { return vals[l.ID()].NotIf(l.Comp()) }
	for l, g := range e.Gates {
		vals[1+k+l] = tt.Maj(at(g[0]), at(g[1]), at(g[2]))
	}
	return at(e.Out)
}

// Instantiate builds the entry inside m with the inputs of the class
// representative driven through the NPN transform t: representative input
// j is fed by leaves[t.Perm[j]], complemented when bit j of t.Flip is set,
// and the output is complemented when t.NegOut is set. With
// npn.Apply(t, Rep) = f this returns a signal computing f over the leaves.
// leaves must cover the entry width K; unused slots may be mig.Const0.
func (e *Entry) Instantiate(m *mig.MIG, leaves []mig.Lit, t npn.Transform) mig.Lit {
	k := e.Rep.N
	sig := make([]mig.Lit, 1+k+len(e.Gates))
	sig[0] = mig.Const0
	for j := 0; j < k; j++ {
		sig[1+j] = leaves[t.Perm[j]].NotIf(t.Flip>>uint(j)&1 == 1)
	}
	at := func(l mig.Lit) mig.Lit { return sig[l.ID()].NotIf(l.Comp()) }
	for l, g := range e.Gates {
		sig[1+k+l] = m.Maj(at(g[0]), at(g[1]), at(g[2]))
	}
	return at(e.Out).NotIf(t.NegOut)
}

// analyze fills in the Depth and LeafDepth fields.
func (e *Entry) analyze() {
	k := e.Rep.N
	depth := make([]int, 1+k+len(e.Gates))
	for l, g := range e.Gates {
		d := depth[g[0].ID()]
		if d2 := depth[g[1].ID()]; d2 > d {
			d = d2
		}
		if d2 := depth[g[2].ID()]; d2 > d {
			d = d2
		}
		depth[1+k+l] = d + 1
	}
	e.Depth = depth[e.Out.ID()]
	// Longest path from the output to each input, counted in gates:
	// down[j][node] = max gates on a node→input-j path, -1 if unreachable.
	for j := range e.LeafDepth {
		if j >= k {
			e.LeafDepth[j] = -1
			continue
		}
		down := make([]int, 1+k+len(e.Gates))
		for i := range down {
			down[i] = -1
		}
		down[1+j] = 0
		for l, g := range e.Gates {
			best := -1
			for _, ch := range g {
				if d := down[ch.ID()]; d >= 0 && d+1 > best {
					best = d + 1
				}
			}
			down[1+k+l] = best
		}
		e.LeafDepth[j] = down[e.Out.ID()]
	}
}

// FromMIG converts a single-output MIG over K = rep.N inputs (4 or 5)
// into an Entry for rep, verifying that the MIG computes rep. Dead gates
// are dropped.
func FromMIG(rep tt.TT, m *mig.MIG) (Entry, error) {
	if rep.N != 4 && rep.N != 5 {
		return Entry{}, fmt.Errorf("db: representative must have 4 or 5 variables, got %d", rep.N)
	}
	if m.NumPIs() != rep.N || m.NumPOs() != 1 {
		return Entry{}, fmt.Errorf("db: entry MIG must be %d inputs / 1 output, got %d/%d", rep.N, m.NumPIs(), m.NumPOs())
	}
	clean := m.Compact()
	e := Entry{Rep: rep, Out: clean.Output(0)}
	for id := 1 + rep.N; id < clean.NumNodes(); id++ {
		e.Gates = append(e.Gates, clean.Fanin(mig.ID(id)))
	}
	if got := e.Eval(); got != rep {
		return Entry{}, fmt.Errorf("db: entry computes %v, want %v", got, rep)
	}
	e.analyze()
	return e, nil
}

// format renders the entry as one artifact line:
//
//	<rep-hex4> k=<gates> out=<lit> gates=<a.b.c;...> us=<µs>
//
// Literals are the decimal value id·2+complement.
func (e *Entry) format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%04x k=%d out=%d", e.Rep.Bits, len(e.Gates), e.Out)
	if len(e.Gates) > 0 {
		b.WriteString(" gates=")
		for l, g := range e.Gates {
			if l > 0 {
				b.WriteByte(';')
			}
			fmt.Fprintf(&b, "%d.%d.%d", g[0], g[1], g[2])
		}
	}
	if e.GenTime > 0 {
		fmt.Fprintf(&b, " us=%d", e.GenTime.Microseconds())
	}
	return b.String()
}

// parseEntry parses one artifact line produced by format.
func parseEntry(line string) (Entry, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Entry{}, fmt.Errorf("db: malformed entry %q", line)
	}
	bitsVal, err := strconv.ParseUint(fields[0], 16, 16)
	if err != nil {
		return Entry{}, fmt.Errorf("db: bad representative in %q: %v", line, err)
	}
	e := Entry{Rep: tt.New(4, bitsVal)}
	var k int
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return Entry{}, fmt.Errorf("db: malformed field %q in %q", f, line)
		}
		switch key {
		case "k":
			if k, err = strconv.Atoi(val); err != nil {
				return Entry{}, fmt.Errorf("db: bad gate count in %q: %v", line, err)
			}
		case "out":
			v, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return Entry{}, fmt.Errorf("db: bad output literal in %q: %v", line, err)
			}
			e.Out = mig.Lit(v)
		case "gates":
			for _, gs := range strings.Split(val, ";") {
				parts := strings.Split(gs, ".")
				if len(parts) != 3 {
					return Entry{}, fmt.Errorf("db: bad gate %q in %q", gs, line)
				}
				var g [3]mig.Lit
				for c, p := range parts {
					v, err := strconv.ParseUint(p, 10, 32)
					if err != nil {
						return Entry{}, fmt.Errorf("db: bad literal %q in %q: %v", p, line, err)
					}
					g[c] = mig.Lit(v)
				}
				e.Gates = append(e.Gates, g)
			}
		case "us":
			us, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Entry{}, fmt.Errorf("db: bad time in %q: %v", line, err)
			}
			e.GenTime = time.Duration(us) * time.Microsecond
		default:
			return Entry{}, fmt.Errorf("db: unknown field %q in %q", key, line)
		}
	}
	if k != len(e.Gates) {
		return Entry{}, fmt.Errorf("db: gate count %d does not match %d gates in %q", k, len(e.Gates), line)
	}
	for l, g := range e.Gates {
		for _, ch := range g {
			if int(ch.ID()) >= 5+l {
				return Entry{}, fmt.Errorf("db: gate %d has forward reference %v in %q", l, ch, line)
			}
		}
	}
	if int(e.Out.ID()) >= 5+len(e.Gates) {
		return Entry{}, fmt.Errorf("db: output literal %v out of range in %q", e.Out, line)
	}
	if got := e.Eval(); got != e.Rep {
		return Entry{}, fmt.Errorf("db: entry %04x computes %v", e.Rep.Bits, got)
	}
	e.analyze()
	return e, nil
}
