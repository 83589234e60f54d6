package db

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync"
	"testing"

	"mighash/internal/npn"
	"mighash/internal/tt"
)

// learned holds the two classes learnTwo synthesizes, learned once per
// test binary: every caller gets a fresh store over the same entries.
var learned struct {
	once    sync.Once
	entries []*Entry
	negRep  uint32
	err     string
}

// learnTwo returns a store that has learned two classes and
// negative-cached one.
func learnTwo(t testing.TB) *OnDemand {
	t.Helper()
	learned.once.Do(func() {
		s := NewOnDemand(OnDemandOptions{})
		for _, f := range []tt.TT{and5(), majority5()} {
			if _, _, ok := s.Lookup(context.Background(), f); !ok {
				learned.err = fmt.Sprintf("class of %v blew the default budget", f)
				return
			}
		}
		hard := NewOnDemand(OnDemandOptions{MaxConflicts: 1})
		// Learn the negative marker through a separate 1-conflict store
		// so the main store's entries stay real, then transplant the key.
		f := tt.New(5, 0x9D2B64E817A3C55F)
		if _, _, ok := hard.Lookup(context.Background(), f); ok {
			learned.err = "1-conflict budget unexpectedly succeeded"
			return
		}
		rep, _ := npn.Canonize5(f)
		learned.entries, _ = s.snapshotState()
		learned.negRep = uint32(rep.Bits)
	})
	if learned.err != "" {
		t.Fatal(learned.err)
	}
	s := NewOnDemand(OnDemandOptions{})
	for _, e := range learned.entries {
		s.add(e)
	}
	s.addNegative(learned.negRep)
	return s
}

// TestSnapshotRoundTripsStore: learned and negative 5-input classes
// survive SaveSnapshotFile/LoadSnapshotFile, and a warm store
// re-synthesizes nothing.
func TestSnapshotRoundTripsStore(t *testing.T) {
	s := learnTwo(t)
	path := filepath.Join(t.TempDir(), "npn.cache")
	wrote, err := SaveSnapshotFile(path, s)
	if err != nil {
		t.Fatal(err)
	}
	if want := s.Len() + s.NegativeLen(); wrote != want {
		t.Fatalf("wrote %d records, want %d", wrote, want)
	}

	s2 := NewOnDemand(OnDemandOptions{})
	got, err := LoadSnapshotFile(path, s2)
	if err != nil {
		t.Fatal(err)
	}
	if got != wrote {
		t.Fatalf("restored %d records, want %d", got, wrote)
	}
	if s2.Len() != s.Len() || s2.NegativeLen() != s.NegativeLen() {
		t.Fatalf("store restored %d/%d classes, want %d/%d",
			s2.Len(), s2.NegativeLen(), s.Len(), s.NegativeLen())
	}
	// Warm lookups must hit without synthesizing, for positive and
	// negative classes alike.
	for _, f := range []tt.TT{and5().Not(), majority5(), tt.New(5, 0x9D2B64E817A3C55F)} {
		e, tr, ok := s2.Lookup(context.Background(), f)
		if ok {
			if got := tr.Apply(e.Rep); got != f {
				t.Fatalf("restored entry instantiates %v, want %v", got, f)
			}
		}
	}
	if s2.Synths() != 0 {
		t.Fatalf("warm store ran %d ladders, want 0", s2.Synths())
	}
	// And the snapshot is deterministic.
	var a, b bytes.Buffer
	if _, err := WriteSnapshot(&a, s); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(&b, s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot of a restored state differs from the original")
	}
}

// TestRestoreRejectsTamperedClass5: flipping a bit inside a learned
// class's structure must fail the whole restore (simulation check),
// leaving the store cold.
func TestRestoreRejectsTamperedClass5(t *testing.T) {
	s := learnTwo(t)
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one payload bit past the header and re-seal the checksum so
	// only the semantic verification can catch it.
	raw[len(raw)/2] ^= 0x04
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
	s2 := NewOnDemand(OnDemandOptions{})
	if _, err := ReadSnapshot(bytes.NewReader(raw), s2); err == nil {
		t.Fatal("tampered snapshot restored cleanly")
	} else if !errors.Is(err, ErrSnapshot) {
		t.Fatalf("error %v does not wrap ErrSnapshot", err)
	}
	if s2.Len() != 0 || s2.NegativeLen() != 0 {
		t.Fatalf("tampered restore left %d/%d classes installed", s2.Len(), s2.NegativeLen())
	}
}
