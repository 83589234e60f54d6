// Package npn implements exact NPN classification of Boolean functions.
//
// Two functions are NPN-equivalent when one can be obtained from the other
// by Negating inputs, Permuting inputs, and/or Negating the output (Sec.
// II-D of the paper). NPN equivalence partitions the 2^2^n functions of n
// variables into a small number of classes — 2, 4, 14 and 222 classes for
// n = 1..4 — and the size of a minimum MIG is invariant within a class, so
// the functional-hashing database only needs one optimal MIG per class.
//
// Following the paper, the representative of a class is the function whose
// truth table, read as a 2^n-bit binary number, is smallest.
//
// A Transform T describes one NPN manipulation. Apply(T, f) evaluates
//
//	g(x_0, …, x_{n-1}) = f(u_0, …, u_{n-1}) ⊕ NegOut,  u_j = x_{Perm[j]} ⊕ Flip_j,
//
// that is, input j of f is driven by variable Perm[j] of g, complemented
// when bit j of Flip is set. This "wiring" form is exactly what is needed
// to instantiate a database MIG on the leaves of a cut.
//
// Beyond 4 variables exhaustive classification stops scaling (~616k
// classes at n = 5), so Canonize5 computes a *semi-canonical* form
// instead: signature normalization — output polarity by ones count,
// input polarities and variable order by cofactor counts — prunes the
// 7680-transform sweep down to the handful of candidates whose image
// satisfies the invariants, and the minimum image among them is the
// representative. Because the candidate set is a property of the class,
// not of the queried member, the result is a true class invariant; it
// merely need not be the class-wide minimum truth table. Signature ties
// multiply the candidates, and degenerate fully-symmetric functions fall
// back to the exhaustive sweep (a class-invariant decision too).
//
// Role in the functional-hashing flow: Canonize sits on the hot path of
// every rewriting pass — each enumerated cut's truth table is
// canonicalized here before the database lookup. Each rewrite
// workspace's db.Cache memoizes the (Canonize, Lookup) pair so repeated cut
// functions skip this package entirely; Canonize5 keys the on-demand
// 5-input store (db.OnDemand) the same way.
//
// Concurrency contract: Transform is an immutable value and every
// function is pure. The 4-variable fast path uses a precomputed table
// built lazily under sync.Once, so all entry points are safe for
// unlimited concurrent use.
package npn
