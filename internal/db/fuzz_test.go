package db

import (
	"bytes"
	"strings"
	"testing"

	"mighash/internal/npn"
	"mighash/internal/tt"
)

// FuzzRead throws arbitrary bytes at the text-artifact parser. Any
// input — corrupt, truncated, or adversarial — must come back as an
// error, never a panic; inputs that do parse must re-serialize.
func FuzzRead(f *testing.F) {
	d, err := Load()
	if err != nil {
		f.Fatalf("embedded database unavailable: %v", err)
	}
	var art strings.Builder
	if err := d.Write(&art); err != nil {
		f.Fatal(err)
	}
	lines := strings.Split(art.String(), "\n")
	f.Add(art.String())
	f.Add(strings.Join(lines[:10], "\n"))
	f.Add("")
	f.Add("# comment only\n")
	f.Add("6996 k=0 out=3\n")
	f.Add("6996 k=3 out=9 gates=2.4.6;3.5.7;8.10.11\n")
	f.Add("zzzz k=1 out=1 gates=1.1.1\n")
	f.Add("6996 k=1 out=99999999999999999999\n")
	f.Add("6996 k=1 gates=1.2\n")
	f.Add("0000 unknown=field\n")
	f.Fuzz(func(t *testing.T, input string) {
		d, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		// Whatever parsed must round-trip through Write|Read.
		var out strings.Builder
		if err := d.Write(&out); err != nil {
			t.Fatalf("Write of parsed database failed: %v", err)
		}
		if _, err := Read(strings.NewReader(out.String())); err != nil {
			t.Fatalf("re-parse of written database failed: %v", err)
		}
	})
}

// FuzzRestore throws arbitrary bytes at the snapshot decoder. Corrupt,
// truncated, or version-skewed input must return an error and leave the
// store cold — never panic, never install classes from a bad stream.
func FuzzRestore(f *testing.F) {
	good := snapshotBytes(f, filledStore(f, 200, 42))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:4])
	f.Add([]byte{})
	f.Add([]byte("MHC\x01"))
	f.Add([]byte("MHC\x02garbage"))
	f.Add([]byte("XYZ\x01"))
	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)/3] ^= 0xFF
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, input []byte) {
		warm := NewOnDemand(OnDemandOptions{})
		n, err := ReadSnapshot(bytes.NewReader(input), warm)
		if err != nil {
			if warm.Len() != 0 || warm.NegativeLen() != 0 {
				t.Fatalf("failed restore installed %d/%d classes", warm.Len(), warm.NegativeLen())
			}
			return
		}
		if n != warm.Len()+warm.NegativeLen() {
			t.Fatalf("restore reported %d records but the store holds %d/%d", n, warm.Len(), warm.NegativeLen())
		}
		// Every learned survivor computes its representative, and every
		// representative is semi-canonical (ReadSnapshot verifies both).
		entries, negs := warm.snapshotState()
		for _, e := range entries {
			if e.Eval() != e.Rep || !npn.IsCanonical5(e.Rep) {
				t.Fatalf("restored class %v is not a verified learned entry", e.Rep)
			}
		}
		for _, k := range negs {
			if !npn.IsCanonical5(tt.New(5, uint64(k))) {
				t.Fatalf("restored negative %#x is not semi-canonical", k)
			}
		}
	})
}
