package mig

import (
	"math/rand"
	"strings"
	"testing"
)

// TestCheckAcceptsBuiltGraphs: graphs built through Maj pass Check in
// every state the package produces: strashed, compacted (no strash),
// cloned, grown after compaction, reset and rebuilt.
func TestCheckAcceptsBuiltGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		m := randomStrashedMIG(rng, 4+rng.Intn(6), 50+rng.Intn(300))
		c := m.Compact()
		cl := c.Clone()
		grown := m.Compact()
		f := grown.Fanin(ID(grown.NumNodes() - 1))
		grown.AddOutput(grown.Maj(f[0].Not(), f[1], grown.Input(0)))
		reset := m.Clone()
		reset.Reset(3)
		reset.AddOutput(reset.Maj(reset.Input(0), reset.Input(1).Not(), reset.Input(2)))
		for name, g := range map[string]*MIG{"built": m, "compacted": c, "clone": cl, "grown": grown, "reset": reset} {
			if err := Check(g); err != nil {
				t.Fatalf("trial %d, %s graph: %v", trial, name, err)
			}
		}
	}
}

// TestCheckRejectsCorruptGraphs corrupts a valid graph one defect at a
// time and requires Check to name each.
func TestCheckRejectsCorruptGraphs(t *testing.T) {
	// base: inputs 1..3, gates 4 = <1 2 3>, 5 = <~1 2 4>, 6 = <2 3 5>.
	base := func() *MIG {
		m := New(3)
		a, b, c := m.Input(0), m.Input(1), m.Input(2)
		g4 := m.Maj(a, b, c)
		g5 := m.Maj(a.Not(), b, g4)
		m.AddOutput(m.Maj(b, c, g5).Not())
		if err := Check(m); err != nil {
			t.Fatalf("the uncorrupted graph fails Check: %v", err)
		}
		return m
	}
	lit := func(id ID, comp bool) Lit { return MakeLit(id, comp) }
	for _, tc := range []struct {
		name    string
		corrupt func(m *MIG)
		want    string
	}{
		{"unsorted triple", func(m *MIG) {
			m.fanin[4] = [3]Lit{lit(2, false), lit(1, false), lit(3, false)}
		}, "not sorted"},
		{"repeated operand", func(m *MIG) {
			m.fanin[4] = [3]Lit{lit(1, false), lit(1, true), lit(3, false)}
		}, "not sorted"},
		{"duplicate triple", func(m *MIG) {
			m.fanin[6] = m.fanin[5]
		}, "same fanins"},
		{"forward reference", func(m *MIG) {
			m.fanin[5] = [3]Lit{lit(1, true), lit(2, false), lit(6, false)}
		}, "not below"},
		{"two complemented operands", func(m *MIG) {
			m.fanin[4] = [3]Lit{lit(1, true), lit(2, true), lit(3, false)}
		}, "more than one complemented"},
		{"out-of-range output", func(m *MIG) {
			m.outputs = append(m.outputs, lit(7, false))
		}, "nonexistent node"},
		{"stale strash", func(m *MIG) {
			m.fanin[4] = [3]Lit{lit(1, false), lit(2, false), lit(3, true)}
		}, "strash"},
		{"wrong level", func(m *MIG) {
			m.level[5] = 3
		}, "gate 5 stores level 3, want 2"},
		{"missing level", func(m *MIG) {
			m.level = m.level[:len(m.level)-1]
		}, "levels stored"},
	} {
		m := base()
		tc.corrupt(m)
		err := Check(m)
		if err == nil {
			t.Errorf("%s: Check accepted the corrupted graph", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check said %q, want a message containing %q", tc.name, err, tc.want)
		}
	}
}
