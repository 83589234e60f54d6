// Package db provides the functional-hashing databases: one precomputed
// minimum MIG for each of the 222 NPN classes of 4-variable functions
// (Sec. IV of the paper), an on-demand learned store for 5-input classes
// (OnDemand — the width the paper's Sec. IV discussion points to but
// cannot precompute: ~616k classes), plus the concurrency-safe cut-cache
// the optimization engine threads through every rewriting pass.
//
// The embedded artifact data/npn4.txt is generated offline by cmd/migdb
// through exact synthesis (internal/exact) and verified by simulation on
// load; Load memoizes it process-wide. Lookup canonicalizes a 4-variable
// function to its class representative (internal/npn) and returns the
// class entry together with the transform that rewires the stored optimum
// onto the caller's leaves — Entry.Instantiate performs that rewiring into
// a target graph. Bound is the Theorem 2 size bound 10·(2^(n−4)−1)+7.
//
// Cache memoizes the (canonicalize, lookup) pair behind 64 cache-line-
// padded shards, turning the hot path of functional hashing into a single
// read-locked map hit for repeated cut functions; hit/miss counters feed
// the engine's RewriteStats and the HTTP service's metrics.
//
// OnDemand (exact5.go) is the learned 5-input database: a miss
// semi-canonicalizes the cut function (npn.Canonize5), synthesizes the
// class's minimum MIG with internal/exact under a per-class budget
// (conflict-bounded by default, so the learned content is deterministic
// at any worker count), memoizes the entry, and negative-caches classes
// that blow the budget so hopeless ladders run once. An in-flight gate
// deduplicates concurrent first contacts per class, and a caller's
// context cancels its ladder without poisoning the class.
//
// Both structures outlive the process: WriteSnapshot/ReadSnapshot
// (persist.go) serialize them as one versioned, checksummed binary
// stream of width-tagged varint records (format version 3, the only one
// read; it carries the learned classes' alternative menus), and
// SaveSnapshotFile/LoadSnapshotFile wrap
// that in an atomic write-temp-then-rename file protocol. Snapshots hold
// no pointers — a cache record names its NPN class by representative and
// Restore rebinds it through the loading process's DB, verifying the
// stored transform against the cut function; a learned-class record
// carries its structure and is re-verified by simulation and
// semi-canonicity — so a snapshot is portable across processes and
// database rebuilds, and corrupt or version-skewed input fails with
// ErrSnapshot (degrading consumers to a cold cache) rather than
// installing anything. SetLimit (evict.go) bounds the cache footprint
// with a per-shard second-chance clock sweep whose reference bits are
// set by atomic ORs on the read-locked hit path.
//
// Concurrency contract: a *DB is immutable after Load/Read and safe to
// share everywhere. A *Cache and an *OnDemand are safe for unlimited
// concurrent use and may be shared across passes, pipeline runs, batch
// workers and HTTP requests
// — but it stores *Entry pointers of the DB it was populated through, so
// never reuse a Cache across different DB instances (snapshots cross that
// boundary safely precisely because they rebind on load). Snapshot may run
// concurrently with lookups; it captures a point-in-time view.
package db
