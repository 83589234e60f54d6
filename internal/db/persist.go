package db

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mighash/internal/fault"
	"mighash/internal/mig"
	"mighash/internal/npn"
	"mighash/internal/tt"
)

// The snapshot format is a versioned, checksummed binary stream:
//
//	magic   4 bytes  "MHC\x03" (the trailing byte is the format version)
//	count   uvarint  number of records
//	records count ×, each introduced by a kind tag byte:
//	  kind 1 — memoized 4-input lookup: never written, skipped on read
//	    key   uvarint  the 16-bit truth table of a cut function
//	    flags 1 byte   bit 0: ok (the record ends here when clear)
//	    perm  1 byte   the transform's input permutation
//	    rep   uvarint  the 16-bit NPN class representative
//	  kind 2 — learned 5-input class (the on-demand store):
//	    rep   uvarint  the 32-bit semi-canonical class representative
//	    k     uvarint  gate count
//	    out   uvarint  output literal (id·2+complement; ids: 0 = const 0,
//	                   1..5 = x1..x5, 6+l = gate l)
//	    gates k × 3 uvarint fanin literals, topological order
//	    us    uvarint  synthesis time in µs
//	    nalts uvarint  alternative implementations (at most
//	                   maxAltsPerEntry)
//	    alts  nalts ×  k / out / gates triples as above — the class's
//	                   strictly shallower tradeoff candidates
//	  kind 3 — negative-cached 5-input class (budget blown):
//	    rep   uvarint  the 32-bit semi-canonical class representative
//	crc     4 bytes  little-endian IEEE CRC-32 of everything above
//
// Only the current version is decoded. A snapshot of an older version
// (1: no kind tags, 4-input records only; 2: kind 2 records without the
// alternative menus) is rejected like a corrupt one, so the process
// starts cold and the next save rewrites the file in the current format.
//
// Kind 1 records hold memoized 4-input lookups, which earlier releases
// persisted. A 4-input lookup is one table load, so its memo no longer
// outlives a pipeline run: files that carry kind 1 records keep their
// 5-input classes, and the kind 1 records are parsed and dropped. The
// format stores no pointers and no process-local state: kind-2 records carry the learned structure itself
// and are re-verified by simulation (plus the semi-canonicity of the
// representative) before installation — the alternative implementations
// are verified against the same representative, so a tampered menu
// cannot enter the store; kind-3 records re-seed the negative cache so a
// budget-blown class is not re-proven hopeless by every process.
const (
	snapshotMagic   = "MHC"
	snapshotVersion = 3

	recCache4 = 1
	recClass5 = 2
	recNeg5   = 3
)

// ErrSnapshot wraps every snapshot decoding failure, so callers can
// distinguish a corrupt or version-skewed snapshot (degrade to a cold
// store) from I/O errors on a healthy file.
var ErrSnapshot = errors.New("db: invalid cache snapshot")

// WriteSnapshot writes the on-demand store's learned and negative
// 5-input classes to w as one snapshot and returns the number of records
// written. The output is deterministic for a given store state
// (records are sorted by representative) and safe to take while other
// goroutines keep using the store.
func WriteSnapshot(w io.Writer, s *OnDemand) (int, error) {
	entries, negatives := s.snapshotState()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Rep.Bits < entries[j].Rep.Bits })
	sort.Slice(negatives, func(i, j int) bool { return negatives[i] < negatives[j] })

	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		bw.Write(buf[:n])
	}
	total := len(entries) + len(negatives)
	bw.WriteString(snapshotMagic)
	bw.WriteByte(snapshotVersion)
	writeUvarint(uint64(total))
	writeBody := func(e *Entry) {
		writeUvarint(uint64(len(e.Gates)))
		writeUvarint(uint64(e.Out))
		for _, g := range e.Gates {
			writeUvarint(uint64(g[0]))
			writeUvarint(uint64(g[1]))
			writeUvarint(uint64(g[2]))
		}
	}
	for _, e := range entries {
		bw.WriteByte(recClass5)
		writeUvarint(e.Rep.Bits)
		writeBody(e)
		writeUvarint(uint64(e.GenTime.Microseconds()))
		nalts := len(e.Alts)
		if nalts > maxAltsPerEntry {
			nalts = maxAltsPerEntry
		}
		writeUvarint(uint64(nalts))
		for a := 0; a < nalts; a++ {
			writeBody(&e.Alts[a])
		}
	}
	for _, k := range negatives {
		bw.WriteByte(recNeg5)
		writeUvarint(uint64(k))
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	_, err := w.Write(sum[:])
	return total, err
}

// crcByteReader counts every byte it hands out into a CRC-32, so the
// decoder can verify the trailer without buffering the whole snapshot.
type crcByteReader struct {
	r   *bufio.Reader
	crc uint32
	one [1]byte
}

func (cr *crcByteReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err == nil {
		cr.one[0] = b
		cr.crc = crc32.Update(cr.crc, crc32.IEEETable, cr.one[:])
	}
	return b, err
}

func (cr *crcByteReader) read(p []byte) error {
	if _, err := io.ReadFull(cr.r, p); err != nil {
		return err
	}
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p)
	return nil
}

// ReadSnapshot decodes one snapshot from r and installs its learned and
// negative 5-input classes into s (learned structures are re-verified by
// simulation and their representatives checked semi-canonical); kind 1
// records are parsed and skipped. It returns the number of records
// installed.
//
// Decoding is all-or-nothing: on any error (truncation, corruption,
// checksum or version mismatch, a record failing verification — all
// wrapping ErrSnapshot, distinguishable from I/O errors) s is not
// changed, so callers degrade to a cold store. Existing contents are
// kept; restored records do not overwrite classes already present.
func ReadSnapshot(r io.Reader, s *OnDemand) (int, error) {
	cr := &crcByteReader{r: bufio.NewReader(r)}
	var head [4]byte
	if err := cr.read(head[:]); err != nil {
		return 0, fmt.Errorf("%w: truncated header: %v", ErrSnapshot, err)
	}
	if string(head[:3]) != snapshotMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrSnapshot, head[:3])
	}
	if version := head[3]; version != snapshotVersion {
		return 0, fmt.Errorf("%w: unsupported version %d (want %d)", ErrSnapshot, version, snapshotVersion)
	}
	count, err := binary.ReadUvarint(cr)
	if err != nil {
		return 0, fmt.Errorf("%w: bad record count: %v", ErrSnapshot, err)
	}
	// At most 64Ki kind 1 records exist (one per 4-input function) and
	// 5-input classes are bounded by the budgeted synthesis reach, so no
	// honest snapshot outgrows this; the bound also stops a corrupt count
	// from allocating unbounded memory before the checksum check can
	// reject it.
	if count > 1<<21 {
		return 0, fmt.Errorf("%w: implausible record count %d", ErrSnapshot, count)
	}
	var (
		learned []Entry
		negs    []uint32
	)
	// skipCache4 consumes one kind 1 record: key, flags and, when the
	// record was ok, the permutation byte and the representative.
	skipCache4 := func(i uint64) error {
		_, err := binary.ReadUvarint(cr)
		var flags byte
		if err == nil {
			flags, err = cr.ReadByte()
		}
		if err == nil && flags&1 != 0 {
			if _, err = cr.ReadByte(); err == nil {
				_, err = binary.ReadUvarint(cr)
			}
		}
		if err != nil {
			return fmt.Errorf("%w: truncated record %d: %v", ErrSnapshot, i, err)
		}
		return nil
	}
	// readBody decodes one k/out/gates implementation body — shared by
	// the primary structure and its alternatives.
	readBody := func(i uint64, rep tt.TT) (Entry, error) {
		k, err := binary.ReadUvarint(cr)
		if err != nil {
			return Entry{}, fmt.Errorf("%w: truncated record %d: %v", ErrSnapshot, i, err)
		}
		if k > uint64(Bound(5)) {
			return Entry{}, fmt.Errorf("%w: record %d gate count %d exceeds the Theorem 2 bound", ErrSnapshot, i, k)
		}
		out, err := binary.ReadUvarint(cr)
		if err != nil {
			return Entry{}, fmt.Errorf("%w: truncated record %d: %v", ErrSnapshot, i, err)
		}
		e := Entry{Rep: rep, Out: mig.Lit(out)}
		for l := uint64(0); l < k; l++ {
			var g [3]mig.Lit
			for cidx := 0; cidx < 3; cidx++ {
				v, err := binary.ReadUvarint(cr)
				if err != nil {
					return Entry{}, fmt.Errorf("%w: truncated record %d: %v", ErrSnapshot, i, err)
				}
				g[cidx] = mig.Lit(v)
				if int(g[cidx].ID()) >= 6+int(l) {
					return Entry{}, fmt.Errorf("%w: record %d gate %d has forward reference %v", ErrSnapshot, i, l, g[cidx])
				}
			}
			e.Gates = append(e.Gates, g)
		}
		if int(e.Out.ID()) >= 6+len(e.Gates) {
			return Entry{}, fmt.Errorf("%w: record %d output literal %v out of range", ErrSnapshot, i, e.Out)
		}
		return e, nil
	}
	readClass5 := func(i uint64) error {
		rep, err := binary.ReadUvarint(cr)
		if err != nil {
			return fmt.Errorf("%w: truncated record %d: %v", ErrSnapshot, i, err)
		}
		if rep > 0xFFFFFFFF {
			return fmt.Errorf("%w: record %d representative %#x exceeds 32 bits", ErrSnapshot, i, rep)
		}
		e, err := readBody(i, tt.New(5, rep))
		if err != nil {
			return err
		}
		us, err := binary.ReadUvarint(cr)
		if err != nil {
			return fmt.Errorf("%w: truncated record %d: %v", ErrSnapshot, i, err)
		}
		e.GenTime = time.Duration(us) * time.Microsecond
		nalts, err := binary.ReadUvarint(cr)
		if err != nil {
			return fmt.Errorf("%w: truncated record %d: %v", ErrSnapshot, i, err)
		}
		if nalts > maxAltsPerEntry {
			return fmt.Errorf("%w: record %d has %d alternatives (max %d)", ErrSnapshot, i, nalts, maxAltsPerEntry)
		}
		for a := uint64(0); a < nalts; a++ {
			alt, err := readBody(i, e.Rep)
			if err != nil {
				return err
			}
			e.Alts = append(e.Alts, alt)
		}
		// Semantic verification — by simulation and semi-canonicity — so
		// a tampered snapshot cannot install an entry the equivalent cold
		// synthesis would not have produced. Alternatives must compute
		// the same representative.
		if got := e.Eval(); got != e.Rep {
			return fmt.Errorf("%w: record %d entry computes %v, want %v", ErrSnapshot, i, got, e.Rep)
		}
		if !npn.IsCanonical5(e.Rep) {
			return fmt.Errorf("%w: record %d representative %v is not semi-canonical", ErrSnapshot, i, e.Rep)
		}
		e.analyze()
		for a := range e.Alts {
			alt := &e.Alts[a]
			if got := alt.Eval(); got != e.Rep {
				return fmt.Errorf("%w: record %d alternative %d computes %v, want %v", ErrSnapshot, i, a, got, e.Rep)
			}
			alt.analyze()
		}
		learned = append(learned, e)
		return nil
	}
	readNeg5 := func(i uint64) error {
		rep, err := binary.ReadUvarint(cr)
		if err != nil {
			return fmt.Errorf("%w: truncated record %d: %v", ErrSnapshot, i, err)
		}
		if rep > 0xFFFFFFFF {
			return fmt.Errorf("%w: record %d representative %#x exceeds 32 bits", ErrSnapshot, i, rep)
		}
		if !npn.IsCanonical5(tt.New(5, rep)) {
			return fmt.Errorf("%w: record %d negative representative %#x is not semi-canonical", ErrSnapshot, i, rep)
		}
		negs = append(negs, uint32(rep))
		return nil
	}
	for i := uint64(0); i < count; i++ {
		kind, err := cr.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("%w: truncated record %d: %v", ErrSnapshot, i, err)
		}
		switch kind {
		case recCache4:
			err = skipCache4(i)
		case recClass5:
			err = readClass5(i)
		case recNeg5:
			err = readNeg5(i)
		default:
			err = fmt.Errorf("%w: record %d has unknown kind %d", ErrSnapshot, i, kind)
		}
		if err != nil {
			return 0, err
		}
	}
	var sum [4]byte
	if _, err := io.ReadFull(cr.r, sum[:]); err != nil {
		return 0, fmt.Errorf("%w: truncated checksum: %v", ErrSnapshot, err)
	}
	if got, want := cr.crc, binary.LittleEndian.Uint32(sum[:]); got != want {
		return 0, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrSnapshot, got, want)
	}

	n := 0
	for i := range learned {
		if s.add(&learned[i]) {
			n++
		}
	}
	for _, k := range negs {
		if s.addNegative(k) {
			n++
		}
	}
	return n, nil
}

// SaveSnapshotFile atomically writes a snapshot of s to path and
// returns the number of records written: the
// snapshot is streamed to a temporary file in the same directory,
// synced, and renamed over path, so readers never observe a partially
// written snapshot and a crash mid-save leaves the previous snapshot
// intact. An existing file keeps its permission bits; a fresh one is
// created world-readable (0644) rather than with CreateTemp's private
// 0600, so sidecar readers are not locked out.
func SaveSnapshotFile(path string, s *OnDemand) (int, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	fail := func(err error) (int, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		mode = fi.Mode().Perm()
	}
	if err := f.Chmod(mode); err != nil {
		return fail(err)
	}
	// Failpoint "db/snapshot-write": a write failure (EIO, full disk)
	// after the temp file exists but before its content is complete. The
	// partial temp file must be removed and the live snapshot untouched.
	if err := fault.Hit("db/snapshot-write"); err != nil {
		io.WriteString(f, snapshotMagic) // leave a genuinely partial write behind
		return fail(err)
	}
	n, err := WriteSnapshot(f, s)
	if err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	// Failpoint "db/snapshot-rename": a crash or error between the fully
	// written temp file and the atomic rename — the last instant where
	// the previous snapshot must survive and no *.tmp* may leak.
	if err := fault.Hit("db/snapshot-rename"); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return n, nil
}

// LoadSnapshotFile restores the snapshot at path into s (see
// ReadSnapshot). A missing file is reported as an error satisfying
// errors.Is(err, fs.ErrNotExist), which callers treat as a cold start;
// any ErrSnapshot error likewise leaves s unchanged.
func LoadSnapshotFile(path string, s *OnDemand) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	// Failpoint "db/snapshot-load": a read failure on a healthy file
	// (bad sector, truncated NFS read). Callers must degrade to a cold
	// store exactly as they do for ErrSnapshot corruption.
	if err := fault.Hit("db/snapshot-load"); err != nil {
		return 0, err
	}
	return ReadSnapshot(f, s)
}
