package main

import (
	"os"
	"testing"
)

// TestPeakRSS: where /proc/self/status exists the report's peak_rss_mb
// is the positive VmHWM of this process; where it is missing, 0.
func TestPeakRSS(t *testing.T) {
	got := peakRSSMiB()
	if _, err := os.Stat("/proc/self/status"); err != nil {
		if got != 0 {
			t.Fatalf("no /proc/self/status, yet peak RSS %v MiB", got)
		}
		return
	}
	if got <= 0 || got > 1<<20 {
		t.Fatalf("peak RSS %v MiB, want a positive VmHWM", got)
	}
}
