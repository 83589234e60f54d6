// Package sat implements a conflict-driven clause-learning (CDCL) SAT
// solver in pure Go.
//
// The paper solves its exact-synthesis decision problems with the Z3 SMT
// solver. The constraints of Sec. III are finite-domain Boolean constraints,
// so they bit-blast directly to CNF; this package provides the solver for
// the resulting formulas. The design follows the classic MiniSat recipe:
// two-watched-literal propagation, first-UIP conflict analysis with
// recursive clause minimization, VSIDS variable activities with phase
// saving, Luby restarts, and activity/LBD-based learnt-clause deletion.
//
// Role in the functional-hashing flow: the solver runs inside rewriting
// passes. The 5-input store (internal/db's OnDemand) learns each NPN class
// the first time a K = 5 pass meets it, by climbing a ladder of exact-
// synthesis decision problems (internal/exact), one fresh Solver per step,
// in the middle of the pass. A cold resyn-x round over six suite circuits
// climbs 38 such ladders, and a server warms its store the same way. The
// solver also generates the 4-input database offline and proves optimized
// graphs equivalent to their inputs (internal/mig's Equivalent). So its
// per-conflict cost is on the critical path of every cold pass: the live
// learnt count is kept as a counter, literal values are read from a
// per-literal array, conflict analysis and clause-database reduction work
// in solver-owned scratch, and clause literals lie back to back in slabs.
//
// Determinism contract: the search is a pure function of the calls made
// on the solver. The same variables and clauses, added in the same order,
// with the same budgets and assumptions, give the same decisions,
// conflicts, learnt clauses and models, and the same Stats. Nothing
// depends on time, randomness or map order, except that a Deadline or a
// cancelled Ctx may stop a search earlier. The 5-input store's learn-once
// guarantee rests on this: a class's ladder spends the same conflicts
// under its conflict budget in every run and at any worker count, so it
// learns the same MIG or blows the same budget. TestSearchIdentityPins and
// internal/exact's TestLadder5Pins fix the counters exactly; a change
// that moves them moves the learned database and every resyn5 and
// resyn-x result.
//
// Concurrency contract: a Solver is single-goroutine — it mutates its
// clause database, trail and activity state on every call and performs no
// locking. Run concurrent SAT work by giving each goroutine its own
// Solver; distinct solvers share nothing.
package sat
