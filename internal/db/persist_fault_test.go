package db

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mighash/internal/fault"
)

// TestSaveSnapshotFileCrashSafety drives the two failpoints inside the
// atomic save — a write failure while the temp file is partial, and a
// failure at the last instant before the rename — and proves the crash
// contract either way: the live snapshot is untouched byte-for-byte and
// still restores, no *.tmp* file leaks, and once the fault clears the
// next save succeeds.
func TestSaveSnapshotFileCrashSafety(t *testing.T) {
	for _, fp := range []string{"db/snapshot-write", "db/snapshot-rename"} {
		t.Run(filepath.Base(fp), func(t *testing.T) {
			defer fault.Reset()
			dir := t.TempDir()
			path := filepath.Join(dir, "mig.cache")

			s := NewOnDemand(OnDemandOptions{})
			addNegatives(s, 200, 11)
			n, err := SaveSnapshotFile(path, s)
			if err != nil {
				t.Fatalf("initial save: %v", err)
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			// Grow the store so a save that wrongly went through would
			// change the file — byte-equality below then proves it didn't.
			addNegatives(s, 200, 12)
			if err := fault.Enable(fp, "return(injected EIO)"); err != nil {
				t.Fatal(err)
			}
			if _, err := SaveSnapshotFile(path, s); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("faulty save returned %v, want ErrInjected", err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("live snapshot unreadable after failed save: %v", err)
			}
			if !bytes.Equal(got, golden) {
				t.Fatalf("failed save changed the live snapshot (%d bytes, was %d)", len(got), len(golden))
			}
			if m, err := ReadSnapshot(bytes.NewReader(got), NewOnDemand(OnDemandOptions{})); err != nil || m != n {
				t.Fatalf("live snapshot no longer restores: %d records, err %v (want %d, nil)", m, err, n)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) != 0 {
				t.Fatalf("failed save leaked temp files: %v", tmps)
			}

			fault.Disable(fp)
			n2, err := SaveSnapshotFile(path, s)
			if err != nil {
				t.Fatalf("save after clearing the fault: %v", err)
			}
			if n2 <= n {
				t.Fatalf("recovered save wrote %d records, want > %d", n2, n)
			}
			if m, err := LoadSnapshotFile(path, NewOnDemand(OnDemandOptions{})); err != nil || m != n2 {
				t.Fatalf("recovered snapshot restores %d records, err %v (want %d, nil)", m, err, n2)
			}
		})
	}
}

// TestLoadSnapshotFileInjectedReadError: a read fault on a healthy
// snapshot file surfaces as an error and leaves the store cold — the
// same degraded path as ErrSnapshot corruption — and the very next load
// warm-starts normally once the fault clears.
func TestLoadSnapshotFileInjectedReadError(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "mig.cache")
	s := NewOnDemand(OnDemandOptions{})
	addNegatives(s, 100, 13)
	n, err := SaveSnapshotFile(path, s)
	if err != nil {
		t.Fatal(err)
	}

	if err := fault.Enable("db/snapshot-load", "return(bad sector)"); err != nil {
		t.Fatal(err)
	}
	cold := NewOnDemand(OnDemandOptions{})
	if _, err := LoadSnapshotFile(path, cold); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("faulty load returned %v, want ErrInjected", err)
	}
	if cold.Len() != 0 || cold.NegativeLen() != 0 {
		t.Fatalf("failed load left %d/%d classes in the store, want none", cold.Len(), cold.NegativeLen())
	}

	fault.Disable("db/snapshot-load")
	if m, err := LoadSnapshotFile(path, cold); err != nil || m != n {
		t.Fatalf("load after clearing the fault: %d records, err %v (want %d, nil)", m, err, n)
	}
}
