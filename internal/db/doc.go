// Package db provides the functional-hashing databases: one precomputed
// minimum MIG for each of the 222 NPN classes of 4-variable functions
// (Sec. IV of the paper), plus an on-demand learned store for 5-input
// classes (OnDemand — the width the paper's Sec. IV discussion points to
// but cannot precompute: ~616k classes).
//
// The embedded artifact data/npn4.txt is generated offline by cmd/migdb
// through exact synthesis (internal/exact) and verified by simulation on
// load; Load memoizes it process-wide. Lookup canonicalizes a 4-variable
// function to its class representative (internal/npn) and returns the
// class entry together with the transform that rewires the stored optimum
// onto the caller's leaves — Entry.Instantiate performs that rewiring into
// a target graph. Bound is the Theorem 2 size bound 10·(2^(n−4)−1)+7.
//
// Cache memoizes the (canonicalize, lookup) pair in a plain map for one
// goroutine: each rewrite workspace owns one for a pipeline run, and
// LookupCached reports hits so the pass can count its traffic.
//
// OnDemand (exact5.go) is the learned 5-input database: a miss
// semi-canonicalizes the cut function (npn.Canonize5), synthesizes the
// class's minimum MIG with internal/exact under a per-class budget
// (conflict-bounded by default, so the learned content is deterministic
// at any worker count), memoizes the entry, and negative-caches classes
// that blow the budget so hopeless ladders run once. An in-flight gate
// deduplicates concurrent first contacts per class, and a caller's
// context cancels its ladder without poisoning the class. SetLimit
// (evict5.go) bounds the learned classes with a second-chance clock.
//
// The learned store outlives the process: WriteSnapshot/ReadSnapshot
// (persist.go) serialize it as a versioned, checksummed binary stream of
// kind-tagged varint records (format version 3, the only one read; it
// carries the learned classes' alternative menus), and
// SaveSnapshotFile/LoadSnapshotFile wrap that in an atomic
// write-temp-then-rename file protocol. Snapshots hold no pointers — a
// learned-class record carries its structure and is re-verified by
// simulation and semi-canonicity — so a snapshot is portable across
// processes, and corrupt or version-skewed input fails with ErrSnapshot
// (degrading consumers to a cold store) rather than installing anything.
//
// Concurrency contract: a *DB is immutable after Load/Read and safe to
// share everywhere. A *Cache is not safe for concurrent use, and it
// stores *Entry pointers of the DB it was filled through, so it must
// stay with one goroutine and one DB. An *OnDemand is safe for unlimited
// concurrent use and may be shared across passes, pipeline runs, batch
// workers and HTTP requests; WriteSnapshot may run concurrently with
// lookups and captures a point-in-time view.
package db
