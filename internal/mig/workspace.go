package mig

import "slices"

// Workspace holds reusable scratch state for the structural analyses of
// a rewriting pass. ConeNodes and ConeIsReplaceable are evaluated for
// every candidate cut of every node of every pass; backing their
// leaf/visited sets and reference counters with per-node arrays that are
// invalidated by bumping an epoch counter — instead of fresh map[ID]bool
// per call — makes repeated cone analysis allocation-free. The once-per-
// pass analyses (FanoutCountsWS, FFRRootsWS) and the compaction of a
// pass's result (CompactWS) keep their per-node arrays here too, so a
// pass allocates none of them once the arrays have grown.
//
// A Workspace may be reused across passes and across graphs (the arrays
// grow to the largest graph seen) but must not be shared by two goroutines
// at once; each rewrite workspace owns one.
type Workspace struct {
	epoch uint32
	leaf  []uint32 // stamp: node is a leaf of the current cone
	seen  []uint32 // stamp: node visited by the current traversal
	refEp []uint32 // stamp: ref[i] is valid in the current epoch
	ref   []int32  // cone-internal reference counts
	order []ID     // reusable node-list result buffer
	stack []ID     // reusable DFS stack

	fo      []int  // FanoutCountsWS result
	root    []ID   // FFRRootsWS result
	parent  []ID   // FFRRootsWS: unique parent of single-fanout nodes
	reached []bool // FFRRootsWS: live gate, reached from the outputs
	poRef   []bool // FFRRootsWS: drives a primary output
	done    []bool // FFRRootsWS: root known
	nid     []ID   // CompactWS: old-to-new node IDs
}

// cleared returns s resized to n zero elements, reusing its storage when
// it has room and growing it as append would otherwise.
func cleared[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// NewWorkspace returns an empty workspace; the scratch arrays are sized on
// first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// begin sizes the arrays for an n-node graph and opens a fresh epoch.
func (w *Workspace) begin(n int) {
	if len(w.leaf) < n {
		w.leaf = make([]uint32, n)
		w.seen = make([]uint32, n)
		w.refEp = make([]uint32, n)
		w.ref = make([]int32, n)
	}
	w.epoch++
	if w.epoch == 0 { // wrapped: old stamps would alias the new epoch
		clear(w.leaf)
		clear(w.seen)
		clear(w.refEp)
		w.epoch = 1
	}
}

// ConeNodesWS is ConeNodes with all scratch owned by w: the gate IDs in
// the cone of root bounded by leaves, not including the leaves. Unlike
// ConeNodes the order is unspecified — the hot-path callers only need the
// membership and the count, and skipping the sort matters at cut-
// enumeration volume. The result aliases w and is valid until the next
// call on w.
func (m *MIG) ConeNodesWS(w *Workspace, root ID, leaves []ID) []ID {
	w.begin(len(m.fanin))
	e := w.epoch
	for _, l := range leaves {
		w.leaf[l] = e
	}
	w.order = w.order[:0]
	if w.leaf[root] == e || !m.IsGate(root) {
		return w.order
	}
	w.stack = append(w.stack[:0], root)
	w.seen[root] = e
	for len(w.stack) > 0 {
		id := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		w.order = append(w.order, id)
		for _, ch := range m.fanin[id] {
			cid := ch.ID()
			if w.seen[cid] != e && w.leaf[cid] != e && m.IsGate(cid) {
				w.seen[cid] = e
				w.stack = append(w.stack, cid)
			}
		}
	}
	return w.order
}

// ConeSelfContainedWS reports whether the cone most recently computed by
// ConeNodesWS on w can be replaced without duplicating logic: every
// internal gate except the root must have all of its fanout inside the
// cone. nodes must be the (still valid) result of that ConeNodesWS call
// and fo must come from FanoutCounts of the same MIG.
func (m *MIG) ConeSelfContainedWS(w *Workspace, nodes []ID, root ID, fo []int) bool {
	e := w.epoch
	for _, id := range nodes {
		for _, ch := range m.fanin[id] {
			cid := ch.ID()
			if w.refEp[cid] != e {
				w.refEp[cid] = e
				w.ref[cid] = 0
			}
			w.ref[cid]++
		}
	}
	for _, id := range nodes {
		if id == root {
			continue
		}
		if w.refEp[id] != e || int(w.ref[id]) != fo[id] {
			return false
		}
	}
	return true
}
