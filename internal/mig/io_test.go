package mig

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	m := New(3)
	s, c := m.FullAdder(m.Input(0), m.Input(1), m.Input(2))
	m.AddOutput(s)
	m.AddOutput(c.Not())
	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumPIs() != 3 || back.NumPOs() != 2 {
		t.Fatalf("interface mismatch after round trip: %+v", back.Stats())
	}
	w, g := m.Simulate(), back.Simulate()
	for i := range w {
		if w[i] != g[i] {
			t.Errorf("output %d differs after round trip", i)
		}
	}
}

func TestTextRoundTripFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		m := randomMIG(rng, 4, 20, 4)
		var buf bytes.Buffer
		if err := m.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		w, g := m.Simulate(), back.Simulate()
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("trial %d: output %d differs", trial, i)
			}
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"bad header":        "mag 1 2 3\n",
		"truncated gates":   "mig 2 2 1\n0 2 4\n",
		"bad gate line":     "mig 2 1 1\n0 2\nout 6\n",
		"bad literal":       "mig 2 1 1\n0 2 x\nout 6\n",
		"forward reference": "mig 2 1 1\n0 2 12\nout 6\n",
		"missing outputs":   "mig 2 1 2\n0 2 4\nout 6\n",
		"bad output":        "mig 2 1 1\n0 2 4\nfoo 6\n",
		"negative inputs":   "mig -2 0 0\n",
		"negative gates":    "mig 1 -5 0\n",
		"negative outputs":  "mig 1 0 -1\n",
		"inputs past a Lit": "mig 2147483648 0 0\n",
		"gates past a Lit":  "mig 1 2147483647 0\n",
		"count overflow":    "mig 1 9223372036854775807 0\n",
		"claimed gates":     "mig 1 10000000 0\n",
	}
	for name, in := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
		runtime.ReadMemStats(&after)
		// Beyond the scanner's 1 MiB line buffer, a header is no reason
		// to allocate: only parsed lines are.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
			t.Errorf("%s: allocated %d bytes before failing", name, grew)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	m := New(2)
	m.AddOutput(m.And(m.Input(0), m.Input(1)).Not())
	var buf bytes.Buffer
	if err := m.WriteDOT(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"digraph", "shape=box", "shape=circle", "style=dashed"} {
		if !strings.Contains(s, want) {
			t.Errorf("DOT output missing %q:\n%s", want, s)
		}
	}
}
