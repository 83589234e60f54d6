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
// Concurrency contract: enumeration only reads the MIG, so any number of
// enumerations over one frozen graph may run in parallel — provided each
// has its own Workspace. A Workspace owns the arena the per-node cut sets
// live in (steady-state enumeration is allocation-free) and is strictly
// single-goroutine. The rewriter's workspace holds one, and a pass
// enumerates serially before any evaluation worker starts.
package cut
