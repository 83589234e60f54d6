// Package fault is the repository's zero-dependency, build-tag-free
// fault-injection layer: named failpoints threaded through every code
// path that touches the outside world (snapshot save/load and the
// temp-file rename in internal/db, per-job execution in internal/engine,
// request handling and admission control in internal/server), so the
// chaos tests and the chaos-smoke CI job can prove each degraded mode
// instead of hoping for it.
//
// A failpoint is a call site — fault.Hit("db/snapshot-rename") — that is
// compiled into production builds but costs one atomic load and a branch
// while no failpoint is enabled (the zero-cost-off contract of
// internal/obs, pinned at 0 allocs/op by test). Enabling is explicit and
// process-local: fault.Enable in tests, or the migserve -fault dev flag
// via EnableSpec; there is no environment-variable backdoor.
//
// Specs compose modifiers and one action: "0.5*count(3)*return(EIO)"
// fails about every other hit, three times; "delay(5ms)" slows a path
// without failing it; "skip(1)*panic" panics on the second hit. Injected
// errors wrap ErrInjected so tests can tell injected failures from
// organic ones — production degradation paths themselves must treat both
// identically.
//
// The registered failpoints, their degraded behavior, the metric that
// exposes each, and the recovery path are tabulated in ARCHITECTURE.md's
// "Failure modes & degraded states" section.
//
// Concurrency: all package functions are safe for concurrent use; Hit is
// called from engine workers, HTTP handlers and the snapshot loop at
// once. Enable/Disable/Reset serialize behind one
// mutex and are meant for test setup and process start, not hot paths.
package fault
