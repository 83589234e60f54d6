// Package cut implements k-feasible cut enumeration on MIGs (Sec. II-C of
// the paper).
//
// A cut (v, L) of a node v is a set of leaf nodes L such that every path
// from v to a non-terminal passes through a leaf, and every leaf lies on at
// least one such path; paths to the constant node are exempt. Cuts are
// enumerated bottom-up with the saturating union ⊗k over the child cut
// sets, exactly as in the paper:
//
//	cuts_k(0) = {{}}
//	cuts_k(x) = {{x}}
//	cuts_k(g) = cuts_k(g1) ⊗k cuts_k(g2) ⊗k cuts_k(g3)
//
// The number of cuts kept per node is capped priority-cut style (the paper
// uses the same device for the candidate lists of its bottom-up rewriting,
// citing Mishchenko et al.'s priority cuts). The trivial cut {v} is always
// retained.
//
// Role in the functional-hashing flow: this is the first stage of the hot
// path. When enumerating with K ≤ 5 each cut carries its truth table
// (expanded to 5 variables; the low 16 bits are the 4-variable table for
// narrow cuts), computed incrementally from the child cuts' tables during
// the merge, and only for cuts a set keeps — so the rewriter
// (internal/rewrite) hands Cut.TT straight to NPN canonicalization and no
// cone is ever re-simulated. Popcount signature prefilters reject
// infeasible merges before any leaf is compared: once per pair of child
// cuts, and once per triple.
//
// Storage: a Workspace keeps the cut sets in blocks it refills on every
// Enumerate call, each node's set contiguous inside one block. The first
// block is sized from the graph's node count and later ones double up to
// a fixed cap, so a small graph allocates small blocks and a large one
// holds its cuts plus at most one block; steady-state enumeration is
// allocation-free.
//
// Concurrency contract: enumeration only reads the MIG, so any number of
// enumerations over one frozen graph may run in parallel — provided each
// has its own Workspace. A Workspace owns the blocks the per-node cut
// sets live in and is strictly single-goroutine. The rewriter's
// workspace holds one, and each pass enumerates once, before it
// evaluates any node.
package cut
