package db

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"mighash/internal/tt"
)

// TestEnsureAlts: the embedded database derives a verified alternative
// menu — every alternative computes the class representative, is
// strictly shallower than the minimum-size primary, and (the primary
// being minimum-size) never smaller.
func TestEnsureAlts(t *testing.T) {
	d := load(t)
	total := d.EnsureAlts()
	if total < d.Len() {
		t.Fatalf("EnsureAlts reported %d candidates for %d classes", total, d.Len())
	}
	if again := d.EnsureAlts(); again != total {
		t.Fatalf("EnsureAlts not idempotent: %d then %d", total, again)
	}
	if d.Candidates() != total {
		t.Fatalf("Candidates() = %d, want %d", d.Candidates(), total)
	}
	withAlts := 0
	for _, e := range d.Entries() {
		if len(e.Alts) > maxAltsPerEntry {
			t.Fatalf("class %04x has %d alternatives (max %d)", e.Rep.Bits, len(e.Alts), maxAltsPerEntry)
		}
		if len(e.Alts) > 0 {
			withAlts++
		}
		for a := range e.Alts {
			alt := &e.Alts[a]
			if got := alt.Eval(); got != e.Rep {
				t.Fatalf("class %04x alternative %d computes %v", e.Rep.Bits, a, got)
			}
			if alt.Depth >= e.Depth {
				t.Errorf("class %04x alternative %d depth %d not below primary depth %d",
					e.Rep.Bits, a, alt.Depth, e.Depth)
			}
			if alt.Size() < e.Size() {
				t.Errorf("class %04x alternative %d size %d beats the exact minimum %d",
					e.Rep.Bits, a, alt.Size(), e.Size())
			}
		}
	}
	if withAlts == 0 {
		t.Fatal("no class derived any alternative — the menu derivation is dead")
	}
	t.Logf("%d candidates over %d classes (%d classes with alternatives)", total, d.Len(), withAlts)
}

// TestOnDemandAltMenuSurvivesSnapshot: a learned class's alternative
// menu is deterministic and travels through the snapshot — so warm
// stores offer exactly the candidates cold ones do.
func TestOnDemandAltMenuSurvivesSnapshot(t *testing.T) {
	s := NewOnDemand(OnDemandOptions{})
	for _, f := range []tt.TT{and5(), majority5()} {
		if _, _, ok := s.Lookup(context.Background(), f); !ok {
			t.Fatalf("class of %v blew the default budget", f)
		}
	}
	entries, _ := s.snapshotState()

	path := filepath.Join(t.TempDir(), "npn.cache")
	if _, err := SaveSnapshotFile(path, s); err != nil {
		t.Fatal(err)
	}
	warm := NewOnDemand(OnDemandOptions{})
	if _, err := LoadSnapshotFile(path, warm); err != nil {
		t.Fatal(err)
	}
	if got, want := warm.Candidates(), s.Candidates(); got != want {
		t.Fatalf("warm store offers %d candidates, want %d", got, want)
	}
	warmEntries, _ := warm.snapshotState()
	menus := func(es []*Entry) map[uint32][]Entry {
		m := make(map[uint32][]Entry)
		for _, e := range es {
			m[uint32(e.Rep.Bits)] = e.Alts
		}
		return m
	}
	if !reflect.DeepEqual(menus(entries), menus(warmEntries)) {
		t.Fatal("snapshot changed an alternative menu")
	}
}
