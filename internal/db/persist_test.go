package db

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mighash/internal/npn"
	"mighash/internal/tt"
)

// addNegatives negative-caches the classes of n pseudo-random 5-input
// functions in s: cheap, genuinely semi-canonical store content.
func addNegatives(s *OnDemand, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		rep, _ := npn.Canonize5(tt.New(5, rng.Uint64()&0xFFFFFFFF))
		s.addNegative(uint32(rep.Bits))
	}
}

// filledStore returns learnTwo's store plus n negative classes.
func filledStore(t testing.TB, n int, seed int64) *OnDemand {
	t.Helper()
	s := learnTwo(t)
	addNegatives(s, n, seed)
	return s
}

func snapshotBytes(t testing.TB, s *OnDemand) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// records returns the record section of s's snapshot (between the count
// and the checksum) and the number of records in it.
func records(t testing.TB, s *OnDemand) ([]byte, int) {
	t.Helper()
	raw := snapshotBytes(t, s)
	raw = raw[len(snapshotMagic)+1 : len(raw)-4]
	n, w := binary.Uvarint(raw)
	return raw[w:], int(n)
}

// cache4Records encodes one kind 1 record per key as the format wrote
// the 4-input cut-cache: key, flags (ok, NegOut, Flip), permutation and
// representative, each lookup bound through d. Versions 2 and 3 tag each
// record with its kind; version 1 did not.
func cache4Records(d *DB, tagged bool, keys ...uint16) []byte {
	var b []byte
	for _, k := range keys {
		e, tr, _ := d.Lookup(tt.New(4, uint64(k)))
		if tagged {
			b = append(b, recCache4)
		}
		b = binary.AppendUvarint(b, uint64(k))
		flags := byte(1) | (tr.Flip&0x0F)<<2
		if tr.NegOut {
			flags |= 1 << 1
		}
		var perm byte
		for j := 0; j < 4; j++ {
			perm |= byte(tr.Perm[j]&3) << (2 * j)
		}
		b = append(b, flags, perm)
		b = binary.AppendUvarint(b, e.Rep.Bits)
	}
	return b
}

// legacySnapshot seals count records into a well-formed, checksummed
// stream of the given format version.
func legacySnapshot(version byte, count int, recs ...[]byte) []byte {
	out := append([]byte(snapshotMagic), version)
	out = binary.AppendUvarint(out, uint64(count))
	for _, r := range recs {
		out = append(out, r...)
	}
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

var cache4Keys = []uint16{0x6996, 0xE8E8, 0x8000, 0x0001, 0x1234, 0xFFFF}

// TestSnapshotRoundTrip: restoring a snapshot into a fresh store yields
// the same learned classes — structure, alternatives and all — and the
// same negative classes, and reports every record installed.
func TestSnapshotRoundTrip(t *testing.T) {
	s := filledStore(t, 300, 1)
	var buf bytes.Buffer
	wrote, err := WriteSnapshot(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewOnDemand(OnDemandOptions{})
	n, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), warm)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if n != wrote || warm.Len() != s.Len() || warm.NegativeLen() != s.NegativeLen() {
		t.Fatalf("restored %d records into %d/%d classes, want %d into %d/%d",
			n, warm.Len(), warm.NegativeLen(), wrote, s.Len(), s.NegativeLen())
	}
	shape := func(st *OnDemand) map[uint64][]Entry {
		es, _ := st.snapshotState()
		m := make(map[uint64][]Entry)
		for _, e := range es {
			for _, c := range append([]Entry{*e}, e.Alts...) {
				m[e.Rep.Bits] = append(m[e.Rep.Bits], Entry{Rep: c.Rep, Gates: c.Gates, Out: c.Out})
			}
		}
		return m
	}
	if !reflect.DeepEqual(shape(warm), shape(s)) {
		t.Fatal("restored learned classes differ from the originals")
	}
	_, negs := s.snapshotState()
	for _, k := range negs {
		if !warm.negative[k] {
			t.Fatalf("negative class %#x not restored", k)
		}
	}
}

// TestSnapshotDeterministic: two snapshots of one store are
// byte-identical, and so is a snapshot of the same classes inserted in
// another order (records are sorted by representative).
func TestSnapshotDeterministic(t *testing.T) {
	s := filledStore(t, 300, 2)
	a, b := snapshotBytes(t, s), snapshotBytes(t, s)
	if !bytes.Equal(a, b) {
		t.Fatalf("two snapshots of one store differ (%d vs %d bytes)", len(a), len(b))
	}
	entries, negs := s.snapshotState()
	r := NewOnDemand(OnDemandOptions{})
	for i := len(negs) - 1; i >= 0; i-- {
		r.addNegative(negs[i])
	}
	for i := len(entries) - 1; i >= 0; i-- {
		r.add(entries[i])
	}
	if !bytes.Equal(snapshotBytes(t, r), a) {
		t.Fatal("insertion order changed the snapshot")
	}
}

// TestRestoreSkipsUnknownClasses: records of classes the loading store
// does not keep are skipped, not errors. A version 3 stream that still
// carries 4-input cut-cache records (kind 1) — before, between and after
// the 5-input records — restores exactly its learned and negative
// 5-input classes and counts only those.
func TestRestoreSkipsUnknownClasses(t *testing.T) {
	d := mustLoad(t)
	s := filledStore(t, 40, 3)
	entries, negs := s.snapshotState()
	pos, neg := NewOnDemand(OnDemandOptions{}), NewOnDemand(OnDemandOptions{})
	for _, e := range entries {
		pos.add(e)
	}
	for _, k := range negs {
		neg.addNegative(k)
	}
	l, nl := records(t, pos)
	g, ng := records(t, neg)
	head, mid := cache4Keys[:4], cache4Keys[4:]
	stream := legacySnapshot(snapshotVersion, len(cache4Keys)+nl+ng,
		cache4Records(d, true, head...), l, cache4Records(d, true, mid...), g)

	warm := NewOnDemand(OnDemandOptions{})
	n, err := ReadSnapshot(bytes.NewReader(stream), warm)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if want := s.Len() + s.NegativeLen(); n != want {
		t.Fatalf("restored %d records, want the %d 5-input ones", n, want)
	}
	if !bytes.Equal(snapshotBytes(t, warm), snapshotBytes(t, s)) {
		t.Fatal("restored store differs from the one the stream was written from")
	}
}

// TestRestoreSkipsStoreRecordsWithoutStore: kind 1 records belong to the
// 4-input cut-cache, a store the loader no longer has. A stream of only
// such records validates and installs nothing, leaving a non-empty store
// unchanged; the skipped records are still parsed, so a stream cut
// inside one fails like any truncation and changes nothing either.
func TestRestoreSkipsStoreRecordsWithoutStore(t *testing.T) {
	d := mustLoad(t)
	stream := legacySnapshot(snapshotVersion, len(cache4Keys), cache4Records(d, true, cache4Keys...))

	st := NewOnDemand(OnDemandOptions{})
	addNegatives(st, 5, 4)
	before := snapshotBytes(t, st)
	n, err := ReadSnapshot(bytes.NewReader(stream), st)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if n != 0 || !bytes.Equal(snapshotBytes(t, st), before) {
		t.Fatalf("a stream of kind 1 records installed %d records", n)
	}

	first := cache4Records(d, true, cache4Keys[0])
	hdr := len(snapshotMagic) + 1 + len(binary.AppendUvarint(nil, uint64(len(cache4Keys))))
	for cut := hdr + 1; cut < hdr+len(first); cut++ {
		if _, err := ReadSnapshot(bytes.NewReader(stream[:cut]), st); !errors.Is(err, ErrSnapshot) {
			t.Fatalf("cut at byte %d: err = %v, want ErrSnapshot", cut, err)
		}
		if !bytes.Equal(snapshotBytes(t, st), before) {
			t.Fatalf("cut at byte %d: failed restore changed the store", cut)
		}
	}
}

// TestRestoreRejectsCorruption: version skew (including the retired
// versions 1 and 2), bad magic, truncation, a flipped byte, and garbage
// all error out and leave the store cold.
func TestRestoreRejectsCorruption(t *testing.T) {
	d := mustLoad(t)
	good := snapshotBytes(t, filledStore(t, 300, 4))
	n := len(cache4Keys)
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXX\x01"), good[4:]...),
		"version skew": append([]byte(snapshotMagic+"\x63"),
			good[4:]...),
		"version 1":        legacySnapshot(1, n, cache4Records(d, false, cache4Keys...)),
		"version 2":        legacySnapshot(2, n, cache4Records(d, true, cache4Keys...)),
		"truncated header": good[:2],
		"truncated body":   good[:len(good)/2],
		"missing checksum": good[:len(good)-4],
		"garbage":          []byte("not a snapshot at all, sorry"),
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x40
	cases["flipped byte"] = flipped

	for name, data := range cases {
		store := NewOnDemand(OnDemandOptions{})
		n, err := ReadSnapshot(bytes.NewReader(data), store)
		if err == nil {
			t.Errorf("%s: ReadSnapshot accepted corrupt input (%d records)", name, n)
			continue
		}
		if !errors.Is(err, ErrSnapshot) {
			t.Errorf("%s: error %v does not wrap ErrSnapshot", name, err)
		}
		if store.Len() != 0 || store.NegativeLen() != 0 {
			t.Errorf("%s: corrupt restore left %d/%d classes", name, store.Len(), store.NegativeLen())
		}
	}
}

// TestSaveLoadFile: SaveSnapshotFile is atomic (no temp litter) and
// LoadSnapshotFile round-trips; a missing file reports fs.ErrNotExist,
// and a corrupt one ErrSnapshot until the next save replaces it.
func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "npn.cache")

	if _, err := LoadSnapshotFile(path, NewOnDemand(OnDemandOptions{})); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("LoadSnapshotFile on a missing file: err = %v, want fs.ErrNotExist", err)
	}
	s := filledStore(t, 400, 6)
	wrote, err := SaveSnapshotFile(path, s)
	if err != nil {
		t.Fatalf("SaveSnapshotFile: %v", err)
	}
	if glob, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(glob) != 0 {
		t.Fatalf("SaveSnapshotFile left temp files behind: %v", glob)
	}
	n, err := LoadSnapshotFile(path, NewOnDemand(OnDemandOptions{}))
	if err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	if n != wrote || n != s.Len()+s.NegativeLen() {
		t.Fatalf("LoadSnapshotFile restored %d records, wrote %d", n, wrote)
	}

	// Corrupting the file on disk degrades to an error, not a panic, and
	// a subsequent save replaces it atomically.
	if err := os.WriteFile(path, []byte("scribbled over"), 0o644); err != nil {
		t.Fatal(err)
	}
	cold := NewOnDemand(OnDemandOptions{})
	if _, err := LoadSnapshotFile(path, cold); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("LoadSnapshotFile on corrupt file: err = %v, want ErrSnapshot", err)
	}
	if _, err := SaveSnapshotFile(path, s); err != nil {
		t.Fatalf("SaveSnapshotFile over corrupt file: %v", err)
	}
	if _, err := LoadSnapshotFile(path, cold); err != nil {
		t.Fatalf("LoadSnapshotFile after re-save: %v", err)
	}
}

// TestSnapshotConcurrent: snapshotting while the store is being
// written — learned classes re-installed, negatives arriving — must
// neither race nor produce an invalid snapshot.
func TestSnapshotConcurrent(t *testing.T) {
	s := learnTwo(t)
	entries, _ := s.snapshotState()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 2000; i++ {
			s.add(entries[i%len(entries)])
			rep, _ := npn.Canonize5(tt.New(5, rng.Uint64()&0xFFFFFFFF))
			s.addNegative(uint32(rep.Bits))
		}
	}()
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if _, err := WriteSnapshot(&buf, s); err != nil {
			t.Fatalf("WriteSnapshot during writes: %v", err)
		}
		if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), NewOnDemand(OnDemandOptions{})); err != nil {
			t.Fatalf("ReadSnapshot of concurrent snapshot: %v", err)
		}
	}
	<-done
}

// TestSaveFilePermissions: an existing snapshot keeps its permission
// bits across re-saves, and a fresh snapshot is world-readable instead
// of inheriting CreateTemp's private 0600.
func TestSaveFilePermissions(t *testing.T) {
	s := NewOnDemand(OnDemandOptions{})
	addNegatives(s, 50, 9)
	dir := t.TempDir()

	fresh := filepath.Join(dir, "fresh.cache")
	if _, err := SaveSnapshotFile(fresh, s); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(fresh); fi.Mode().Perm() != 0o644 {
		t.Errorf("fresh snapshot mode = %v, want 0644", fi.Mode().Perm())
	}

	kept := filepath.Join(dir, "kept.cache")
	if err := os.WriteFile(kept, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(kept, 0o664); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveSnapshotFile(kept, s); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(kept); fi.Mode().Perm() != 0o664 {
		t.Errorf("re-saved snapshot mode = %v, want preserved 0664", fi.Mode().Perm())
	}
}
