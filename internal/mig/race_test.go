//go:build race

package mig

// The race detector makes sync.Pool drop a random share of the items put
// back, so allocation pins that rely on a reuse pool cannot hold under it.
func init() { raceEnabled = true }
