// Package mig implements Majority-Inverter Graphs.
//
// An MIG (Sec. II-B of the paper) is a directed acyclic graph whose
// non-terminal nodes all compute the ternary majority function 〈abc〉 and
// whose edges may be complemented. Terminals are the primary inputs and the
// constant-0 node; primary outputs are (possibly complemented) pointers to
// arbitrary nodes. MIGs subsume AND-inverter graphs because 〈0ab〉 = a∧b
// and 〈1ab〉 = a∨b, and they are universal.
//
// Nodes are identified by dense integer IDs: ID 0 is the constant-0 node,
// IDs 1..NumPIs() are the primary inputs, and higher IDs are majority
// gates. Gates are created strictly after their children, so ascending ID
// order is always a topological order. A signal is addressed by a Lit,
// which packs a node ID and a complement bit. Every node carries its
// level, the paper's depth measure in visited gates: 0 for the
// terminals and one more than the deepest fanin for a gate. Nodes are
// never changed once made, so the level is stored when a node is made
// (by New, Reset and Maj, copied by Compact, Cone and Clone), and Level
// and Depth only read it.
//
// Gate creation performs structural hashing with the majority-axiom
// normalizations 〈aab〉 = a and 〈aāb〉 = b, operand sorting
// (commutativity), and inverter canonicalization through the self-duality
// 〈abc〉 = ¬〈āb̄c̄〉, so structurally equivalent subgraphs are
// automatically shared. The strash is an open-addressing table owned by
// the graph — no per-gate map allocations — and built only where
// something reads it: Compact and Clone of an unindexed graph copy the
// gates without one, and the first Maj on such a graph indexes it. A
// reader that probes a graph it does not build (a choice-aware rewrite
// pass pricing candidate gates) does so through an Index it owns, so the
// graph stays untouched. Check verifies the invariants all of this rests
// on: fanins below their gate, every fanin triple canonical and unique,
// and every stored level right.
//
// Besides the structure itself the package provides analysis (fanout
// counts, fanout-free regions, cone extraction), bit-parallel
// simulation, SAT-based combinational equivalence checking (Equivalent),
// the textual netlist format (ReadText/WriteText), BENCH interchange
// (ReadBENCH/WriteBENCH — the wire format of the HTTP optimization
// service, round-tripping byte-identically after one canonicalizing
// write), and DOT rendering. ReadBENCH accepts gate lines that use
// signals defined on later lines and still parses in time linear in the
// netlist, whatever the order of its lines.
//
// Concurrency contract: an *MIG is NOT safe for concurrent mutation —
// Maj (which may also index the graph), AddOutput, SetOutput and Reset
// must stay on one goroutine. Pure readers (Fanin, Level, Size, Depth,
// FanoutCounts, ConeNodes, Compact, Cone, Clone, Check, WriteBENCH, …) are
// safe to call concurrently on a graph no goroutine is mutating; this is
// what lets the concurrent runs of a batch or a server share one input.
// Their WS forms (ConeNodesWS, FanoutCountsWS, FFRRootsWS, CompactWS)
// read the graph the same way and keep their per-node arrays in a
// Workspace. Workspace and Index are per-goroutine state: one per
// concurrent analysis, never shared.
package mig
