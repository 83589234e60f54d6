package mig

import "slices"

// Structural analyses used by the rewriting algorithms: fanout-free
// regions (Sec. IV-C of the paper) and cone extraction.

// FFRRoots computes, for every node, the root of its fanout-free region.
// A node is a region root if it drives a primary output or has fanout
// other than one among the live part of the graph; every single-fanout
// gate belongs to the region of its unique parent. Terminals are their own
// roots. Dead nodes map to themselves. fo must come from FanoutCounts of
// the same MIG.
func (m *MIG) FFRRoots(fo []int) []ID { return m.FFRRootsWS(new(Workspace), fo) }

// FFRRootsWS is FFRRoots with every array in w's storage. The result
// aliases w and is valid until the next FFRRootsWS on w.
func (m *MIG) FFRRootsWS(w *Workspace, fo []int) []ID {
	n := len(m.fanin)
	w.parent = cleared(w.parent, n) // unique parent of single-fanout nodes
	w.reached = cleared(w.reached, n)
	w.poRef = cleared(w.poRef, n) // directly drives a primary output
	parent, seen, poRef := w.parent, w.reached, w.poRef
	stack := w.stack[:0]
	for _, o := range m.outputs {
		poRef[o.ID()] = true
		if id := o.ID(); m.IsGate(id) && !seen[id] {
			seen[id] = true
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ch := range m.fanin[id] {
			cid := ch.ID()
			if fo[cid] == 1 {
				parent[cid] = id
			}
			if m.IsGate(cid) && !seen[cid] {
				seen[cid] = true
				stack = append(stack, cid)
			}
		}
	}
	w.root = cleared(w.root, n)
	w.done = cleared(w.done, n)
	root, done := w.root, w.done
	chain := stack // the emptied stack's storage
	for id := range root {
		// Walk the single-fanout chain upward iteratively — deep fanout-
		// free chains (long carry chains) would otherwise recurse once per
		// gate. Chaining continues only while the sole fanout is another
		// gate; nodes driving a primary output are roots of their own
		// region.
		v := ID(id)
		chain = chain[:0]
		for !done[v] && m.IsGate(v) && seen[v] && fo[v] == 1 && !poRef[v] {
			chain = append(chain, v)
			v = parent[v]
		}
		r := v
		if done[v] {
			r = root[v]
		} else {
			root[v], done[v] = v, true
		}
		for _, c := range chain {
			root[c], done[c] = r, true
		}
	}
	w.stack = chain[:0]
	return root
}

// FFRMembers groups live gates by their fanout-free-region root. The map
// value lists the gates of the region in ascending (topological) order,
// including the root itself.
func (m *MIG) FFRMembers() map[ID][]ID {
	fo := m.FanoutCounts()
	roots := m.FFRRoots(fo)
	groups := make(map[ID][]ID)
	for id := m.numPI + 1; id < len(m.fanin); id++ {
		if fo[id] == 0 {
			continue // dead gate
		}
		groups[roots[id]] = append(groups[roots[id]], ID(id))
	}
	return groups
}

// ConeNodes returns the gate IDs in the cone of root bounded by leaves, in
// ascending order and including root's gate if any. Leaves themselves are
// not included; the constant node never blocks traversal. The traversal is
// iterative, so arbitrarily deep cones cannot overflow the stack; hot
// paths should use ConeNodesWS with a reused Workspace instead.
func (m *MIG) ConeNodes(root ID, leaves []ID) []ID {
	nodes := m.ConeNodesWS(NewWorkspace(), root, leaves)
	slices.Sort(nodes)
	return nodes
}

// ConeIsReplaceable reports whether the cone of root bounded by leaves can
// be replaced without duplicating logic: every internal gate (excluding the
// root) must have all of its fanout inside the cone. fo must come from
// FanoutCounts of the same MIG.
func (m *MIG) ConeIsReplaceable(root ID, leaves []ID, fo []int) bool {
	w := NewWorkspace()
	nodes := m.ConeNodesWS(w, root, leaves)
	return m.ConeSelfContainedWS(w, nodes, root, fo)
}
