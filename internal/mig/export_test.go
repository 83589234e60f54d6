package mig

// CompactRef exposes the Maj-rebuilding reference Compact to the
// package's external benchmarks.
var CompactRef = compactRef
