package mig

import "fmt"

// Check verifies the structural invariants every graph built through Maj
// has, and that Compact relies on instead of re-normalizing: every fanin
// of a gate lies below the gate (so ascending IDs are a topological
// order and every literal is in range), every output is in range, and
// every fanin triple is canonical — operands sorted by strictly
// ascending node ID, at most one of them complemented — and distinct from
// every other gate's. It verifies the stored levels too: one per node,
// 0 for every terminal and one more than the deepest fanin for every
// gate. When m carries a strash, Check also verifies that it indexes
// exactly the gates, each under its own triple. It returns nil or an
// error naming the first violation found.
func Check(m *MIG) error {
	if m.numPI < 0 || len(m.fanin) < 1+m.numPI {
		return fmt.Errorf("mig: %d nodes cannot hold %d inputs", len(m.fanin), m.numPI)
	}
	if len(m.level) != len(m.fanin) {
		return fmt.Errorf("mig: %d levels stored for %d nodes", len(m.level), len(m.fanin))
	}
	for id := 0; id <= m.numPI; id++ {
		if m.level[id] != 0 {
			return fmt.Errorf("mig: terminal %d stores level %d, want 0", id, m.level[id])
		}
	}
	var seen strashTable
	seen.reserve(m.NumGates())
	for id := m.numPI + 1; id < len(m.fanin); id++ {
		f := m.fanin[id]
		if f[2].ID() >= ID(id) {
			return fmt.Errorf("mig: gate %d reads node %d, which is not below it", id, f[2].ID())
		}
		if f[0].ID() >= f[1].ID() || f[1].ID() >= f[2].ID() {
			return fmt.Errorf("mig: gate %d: fanins %v %v %v are not sorted by distinct node IDs", id, f[0], f[1], f[2])
		}
		if f[0]&1+f[1]&1+f[2]&1 > 1 {
			return fmt.Errorf("mig: gate %d: fanins %v %v %v have more than one complemented operand", id, f[0], f[1], f[2])
		}
		if dup, ok := seen.lookup(strashKey(f)); ok {
			return fmt.Errorf("mig: gates %d and %d have the same fanins %v %v %v", dup, id, f[0], f[1], f[2])
		}
		seen.insert(strashKey(f), ID(id))
		if want := 1 + max(m.level[f[0].ID()], m.level[f[1].ID()], m.level[f[2].ID()]); m.level[id] != want {
			return fmt.Errorf("mig: gate %d stores level %d, want %d", id, m.level[id], want)
		}
	}
	for i, o := range m.outputs {
		if int(o.ID()) >= len(m.fanin) {
			return fmt.Errorf("mig: output %d refers to nonexistent node %d", i, o.ID())
		}
	}
	if m.strash.ids == nil {
		return nil
	}
	if m.strash.n != m.NumGates() {
		return fmt.Errorf("mig: the strash indexes %d entries for %d gates", m.strash.n, m.NumGates())
	}
	for id := m.numPI + 1; id < len(m.fanin); id++ {
		if got, ok := m.strash.lookup(strashKey(m.fanin[id])); !ok || got != ID(id) {
			return fmt.Errorf("mig: the strash does not map the fanins of gate %d to it", id)
		}
	}
	return nil
}
