package mig

// The BENCH codec against its reference (benchio_ref_test.go): the writer
// byte for byte, the reader on acceptance and node for node, including
// forward references in any line order, plus the linear-time, size-limit
// and allocation pins.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// randomBenchMIG builds a random graph with complemented edges, constant
// operands, dead gates and outputs on gates, inputs and the constant.
func randomBenchMIG(rng *rand.Rand, pis, gates int) *MIG {
	m := New(pis)
	sigs := []Lit{Const0}
	for i := 0; i < pis; i++ {
		sigs = append(sigs, m.Input(i))
	}
	for g := 0; g < gates; g++ {
		pick := func() Lit {
			// Favour recent signals so the graph is deep, not a flat soup.
			i := len(sigs) - 1 - rng.Intn(min(len(sigs), 24))
			if rng.Intn(4) == 0 {
				i = rng.Intn(len(sigs))
			}
			return sigs[i].NotIf(rng.Intn(3) == 0)
		}
		sigs = append(sigs, m.Maj(pick(), pick(), pick()))
	}
	for o := 0; o < 1+rng.Intn(4); o++ {
		l := sigs[len(sigs)-1-rng.Intn(min(len(sigs), 6))]
		switch rng.Intn(8) {
		case 0:
			l = Const0
		case 1:
			l = m.Input(rng.Intn(pis))
		}
		m.AddOutput(l.NotIf(rng.Intn(2) == 0))
	}
	return m
}

func writeBench(t testing.TB, m *MIG, write func(*MIG, io.Writer) error) string {
	t.Helper()
	var b strings.Builder
	if err := write(m, &b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// textForm is m in the native text format, which lists every gate's
// fanins and every output by node ID.
func textForm(m *MIG) string {
	var b strings.Builder
	m.WriteText(&b)
	return b.String()
}

// sameParse parses src with ReadBENCH and the reference and fails unless
// both reject it with the same message or both build the same graph,
// node for node (WriteText compares every gate's fanins and every output).
func sameParse(t *testing.T, name, src string) {
	t.Helper()
	got, err := ReadBENCH(strings.NewReader(src))
	want, refErr := readBENCHRef(strings.NewReader(src))
	switch {
	case err != nil || refErr != nil:
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Fatalf("%s: error %v, reference error %v\n%s", name, err, refErr, src)
		}
	case textForm(got) != textForm(want):
		t.Fatalf("%s: graph differs from the reference parse\n%s", name, src)
	}
}

// gateLines splits a written netlist into its header lines (comment,
// INPUT, OUTPUT) and the assignment lines after them.
func gateLines(src string) (head, gates []string) {
	for _, l := range strings.SplitAfter(src, "\n") {
		switch {
		case l == "":
		case strings.HasPrefix(l, "#"), strings.HasPrefix(l, "INPUT("), strings.HasPrefix(l, "OUTPUT("):
			head = append(head, l)
		default:
			gates = append(gates, l)
		}
	}
	return head, gates
}

func reversed(src string) string {
	head, gates := gateLines(src)
	for i, j := 0, len(gates)-1; i < j; i, j = i+1, j-1 {
		gates[i], gates[j] = gates[j], gates[i]
	}
	return strings.Join(head, "") + strings.Join(gates, "")
}

func shuffled(rng *rand.Rand, src string) string {
	lines := strings.SplitAfter(src, "\n")
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return strings.Join(lines, "")
}

// decorated rewrites every line with random keyword case, padding,
// trailing comments, blank lines and CRLF endings.
func decorated(rng *rand.Rand, src string) string {
	var b strings.Builder
	for _, l := range strings.Split(strings.TrimSuffix(src, "\n"), "\n") {
		for i := 0; i < len(l); i++ {
			c := l[i]
			if 'A' <= c && c <= 'Z' && rng.Intn(2) == 0 {
				c += 'a' - 'A'
			}
			if c == '(' || c == ',' || c == '=' {
				b.WriteString(strings.Repeat(" ", rng.Intn(2)))
			}
			b.WriteByte(c)
			if c == '(' || c == ',' || c == '=' {
				b.WriteString(strings.Repeat("\t", rng.Intn(2)))
			}
		}
		if rng.Intn(5) == 0 {
			b.WriteString("  # note")
		}
		if rng.Intn(2) == 0 {
			b.WriteByte('\r')
		}
		b.WriteByte('\n')
		if rng.Intn(8) == 0 {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// TestWriteBENCHMatchesReference: the writer's output is byte-identical
// to the reference writer's on 300 random graphs.
func TestWriteBENCHMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for round := 0; round < 300; round++ {
		m := randomBenchMIG(rng, 1+rng.Intn(8), rng.Intn(120))
		got := writeBench(t, m, (*MIG).WriteBENCH)
		if want := writeBench(t, m, writeBENCHRef); got != want {
			t.Fatalf("round %d: output differs from the reference\ngot:\n%s\nwant:\n%s", round, got, want)
		}
	}
}

// TestReadBENCHMatchesReference parses written netlists as they are,
// with their gate lines reversed, with all their lines shuffled and with
// random case, padding and comments, and requires the reference's graph.
func TestReadBENCHMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 300; round++ {
		m := randomBenchMIG(rng, 1+rng.Intn(8), rng.Intn(120))
		src := writeBench(t, m, writeBENCHRef)
		sameParse(t, "written", src)
		sameParse(t, "reversed", reversed(src))
		sameParse(t, "shuffled", shuffled(rng, src))
		sameParse(t, "decorated", decorated(rng, shuffled(rng, src)))
	}
}

// TestReadBENCHMatchesReferenceOnHandWritten covers the classic gate set,
// forward references and every failure path, comparing error messages.
func TestReadBENCHMatchesReferenceOnHandWritten(t *testing.T) {
	cases := map[string]string{
		"classic": `INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y1)
OUTPUT(y2)
OUTPUT(y3)
g1 = NAND(a, b)
g2 = NOR(b, c)
g3 = XOR(g1, g2)
g4 = AND(a, b, c)     # 3-input reduction
y1 = BUF(g3)
y2 = XNOR(g4, c)
one = CONST1
y3 = MAJ(a, b, one)
`,
		"forward":         "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(later, a)\nlater = OR(a, b)\n",
		"late inputs":     "OUTPUT(y)\ny = or(a, b, c, Zero)\nzero = const0\nINPUT(a)\nInput(b)\ninput( c )\n",
		"wide reduction":  "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = XNOR(a, b, c, a, ,b)\n",
		"buff and nand":   "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\ny = BUFF(t)\nt = NAND(a, b)\nz = nor(t, a)\n",
		"duplicate input": "INPUT(a)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n",
		"empty names":     "INPUT()\nOUTPUT()\nOUTPUT(y)\ny = NOT()\n = BUF( )\n",
		"odd names":       "INPUT(a) = AND(b, c)\nOUTPUT(a) = AND(b, c)\na) = AND(b, c = BUF(a) = AND(b, c)\n",
		"no outputs":      "INPUT(a)\nb = NOT(a)\n",
		"nothing":         "# just a comment\n\n",
		"cycle":           "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = OR(a, y)\n",
		"self loop":       "INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n",
		"undefined":       "INPUT(a)\nOUTPUT(y)\ny = AND(a, q)\nw = NOT(y)\nv = BUF(w)\n",
		"unknown op":      "INPUT(a)\nOUTPUT(y)\ny = Foo(a)\n",
		"unknown op late": "INPUT(a)\nOUTPUT(y)\ny = foo(z)\nz = NOT(a)\n",
		"unknown stuck":   "INPUT(a)\nOUTPUT(y)\ny = FOO(q)\n",
		"bare op":         "INPUT(a)\nOUTPUT(y)\ny = a\n",
		"empty op":        "INPUT(a)\nOUTPUT(y)\ny =\n",
		"bad arity":       "INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a)\n",
		"and arity":       "INPUT(a)\nOUTPUT(y)\ny = and(a)\n",
		"not arity":       "INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n",
		"const arity":     "INPUT(a)\nOUTPUT(y)\ny = CONST1(a)\n",
		"redefine":        "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\ny = NOT(a)\n",
		"redefine late":   "INPUT(a)\nOUTPUT(y)\ny = AND(z, a)\nz = NOT(a)\ny = BUF(a)\n",
		"assign input":    "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\na = BUF(y)\n",
		"missing out":     "INPUT(a)\nOUTPUT(y)\nz = NOT(a)\n",
		"no assign":       "INPUT(a)\nOUTPUT(y)\njust words\n",
		"open paren":      "INPUT(a)\nOUTPUT(y)\ny = AND(a, a\n",
		"keyword only":    "INPUT(\n",
		"error order":     "INPUT(a)\nOUTPUT(y)\ny = MAJ(a)\nz = q\njust words\n",
	}
	for name, src := range cases {
		sameParse(t, name, src)
	}
}

// TestReadBENCHReverseOrderIsLinear: a netlist of about 50,000 lines in
// reverse dependency order parses in well under the reference's minutes
// and computes the functions it was written from.
func TestReadBENCHReverseOrderIsLinear(t *testing.T) {
	m := randomBenchMIG(rand.New(rand.NewSource(20)), 6, 40000)
	src := reversed(writeBench(t, m, (*MIG).WriteBENCH))
	if n := strings.Count(src, "\n"); n < 50000 {
		t.Fatalf("netlist has only %d lines", n)
	}
	start := time.Now()
	got, err := ReadBENCH(strings.NewReader(src))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("parsing took %v", elapsed)
	}
	if err != nil {
		t.Fatal(err)
	}
	want, have := m.Simulate(), got.Simulate()
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("output %d computes %v, want %v", i, have[i], want[i])
		}
	}
}

// chainedMAJ returns a BENCH netlist of at least size bytes: 64 inputs
// and a chain of MAJ lines, each taking the previous gate and two inputs.
func chainedMAJ(size int) string {
	var b []byte
	for i := 0; i < 64; i++ {
		b = append(strconv.AppendInt(append(b, "INPUT(x"...), int64(i), 10), ")\n"...)
	}
	b = append(b, "OUTPUT(g0)\ng0 = MAJ(x0, x1, x2)\n"...)
	for i := 1; len(b) < size; i++ {
		b = strconv.AppendInt(append(b, 'g'), int64(i), 10)
		b = strconv.AppendInt(append(b, " = MAJ(g"...), int64(i-1), 10)
		b = strconv.AppendInt(append(b, ", x"...), int64(i%64), 10)
		b = strconv.AppendInt(append(b, ", x"...), int64((i+7)%64), 10)
		b = append(b, ")\n"...)
	}
	return string(b)
}

// readBENCHLimit is ReadBENCHLimit over a string, shaped as ParseBENCH.
func readBENCHLimit(src string, limit int) (*MIG, error) {
	return ReadBENCHLimit(strings.NewReader(src), limit)
}

// parseCost returns the time and bytes parse took on src, and its error.
func parseCost(parse func(string, int) (*MIG, error), src string, limit int) (time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := parse(src, limit)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.TotalAlloc - before.TotalAlloc, err
}

// TestReadBENCHLimitStopsEarly: a 16 MiB body of chained MAJ lines is
// refused under a limit of 1000 at the line that passes it, for at most
// a tenth of the time and a quarter of the bytes of reading it whole.
// ParseBENCH, which the server calls with the netlist string it holds,
// refuses it without copying the body: in under a sixteenth of its
// bytes.
func TestReadBENCHLimitStopsEarly(t *testing.T) {
	if testing.Short() {
		t.Skip("reads a 16 MiB netlist")
	}
	src := chainedMAJ(16<<20 - 64)
	full, fullBytes, err := parseCost(readBENCHLimit, src, -1)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(err error) {
		t.Helper()
		var se *SizeError
		if !errors.As(err, &se) || se.Limit != 1000 || se.Inputs+se.Gates != 1001 {
			t.Fatalf("error %v, want a *SizeError at 1001 inputs and gates", err)
		}
	}
	limited, limitedBytes := time.Duration(1<<62), uint64(0)
	for i := 0; i < 3; i++ {
		d, b, err := parseCost(readBENCHLimit, src, 1000)
		refused(err)
		limited, limitedBytes = min(limited, d), b
	}
	_, parsedBytes, err := parseCost(ParseBENCH, src, 1000)
	refused(err)
	t.Logf("whole read %v, %d bytes; refused under 1000: %v, %d bytes (ParseBENCH: %d bytes)",
		full, fullBytes, limited, limitedBytes, parsedBytes)
	if limited > full/10 || limitedBytes > fullBytes/4 {
		t.Errorf("refusal took %v and %d bytes against %v and %d for the whole read", limited, limitedBytes, full, fullBytes)
	}
	if parsedBytes > uint64(len(src))/16 {
		t.Errorf("ParseBENCH refused the %d-byte body allocating %d bytes", len(src), parsedBytes)
	}
}

// TestReadBENCHLineLimit: like the line scanner the reference reads with,
// the reader takes a line of maxBenchLine bytes and rejects a longer one
// with bufio.ErrTooLong.
func TestReadBENCHLineLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 16 MiB lines")
	}
	tail := "\nINPUT(a)\nOUTPUT(a)\n"
	for _, n := range []int{maxBenchLine, maxBenchLine + 1} {
		src := "#" + strings.Repeat("c", n-1) + tail
		_, err := ReadBENCH(strings.NewReader(src))
		_, refErr := readBENCHRef(strings.NewReader(src))
		if err != refErr || (n > maxBenchLine) != (err == bufio.ErrTooLong) {
			t.Errorf("line of %d bytes: error %v, reference error %v", n, err, refErr)
		}
	}
}

// FuzzReadBENCH: the reader never panics, accepts exactly what the
// reference accepts and builds the same graph, ParseBENCH agrees with
// ReadBENCHLimit under every limit tried, and on accepted input
// write→read→write is a fixpoint. The seed corpus in
// testdata/fuzz/FuzzReadBENCH adds a cone of the prepared Adder.
//
// Excluded: the reference matched keywords after strings.ToUpper, which
// also folds two non-ASCII letters onto ASCII ones (ı U+0131 → I,
// ſ U+017F → S), so it read "ınput(a)" as an input named "(a" and
// "conſt0" as CONST0. The reader folds ASCII letters only; inputs with
// either letter are skipped.
func FuzzReadBENCH(f *testing.F) {
	f.Add([]byte("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y1)\nOUTPUT(y2)\nOUTPUT(y3)\n" +
		"g1 = NAND(a, b)\ng2 = NOR(b, c)\ng3 = XOR(g1, g2)\ng4 = AND(a, b, c)     # 3-input reduction\n" +
		"y1 = BUF(g3)\ny2 = XNOR(g4, c)\none = CONST1\ny3 = MAJ(a, b, one)\n"))
	f.Add([]byte("\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(later, a)\nlater = OR(a, b)\n"))
	f.Add([]byte("INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = OR(a, y)\n"))
	f.Add([]byte("INPUT(a)\nOUTPUT(y)\ny = FOO(a)\n"))
	f.Add([]byte("INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a)\n"))
	f.Add([]byte("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\ny = NOT(a)\n"))
	f.Add([]byte("INPUT(a)\nOUTPUT(y)\nz = NOT(a)\n"))
	f.Add([]byte("INPUT(a)\nOUTPUT(y)\njust words\n"))
	m := New(2)
	m.AddOutput(m.And(m.Input(0), Const1))
	m.AddOutput(m.Maj(m.Input(0), m.Input(1), Const0))
	f.Add([]byte(writeBench(f, m, (*MIG).WriteBENCH)))
	rng := rand.New(rand.NewSource(101))
	f.Add([]byte(reversed(writeBench(f, randomBenchMIG(rng, 4, 30), (*MIG).WriteBENCH))))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := string(data)
		if strings.ContainsAny(src, "ıſ") {
			t.Skip("ı and ſ no longer spell keywords")
		}
		got, err := ReadBENCH(strings.NewReader(src))
		want, refErr := readBENCHRef(strings.NewReader(src))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("error %v, reference error %v", err, refErr)
		}
		agree := func(limit int, m *MIG, err error) {
			t.Helper()
			pm, perr := ParseBENCH(src, limit)
			if fmt.Sprint(perr) != fmt.Sprint(err) || (err == nil && textForm(pm) != textForm(m)) {
				t.Fatalf("limit %d: ParseBENCH gives error %v, ReadBENCHLimit %v, or a different graph", limit, perr, err)
			}
		}
		agree(-1, got, err)
		if err != nil {
			return
		}
		if textForm(got) != textForm(want) {
			t.Fatalf("graph differs from the reference parse")
		}
		// The declared count bounds the built graph, and a limit either
		// refuses the netlist with a *SizeError or reads the same graph.
		var n benchNetlist
		if err := n.scan(src, -1); err != nil {
			t.Fatalf("rescan: %v", err)
		}
		if got.NumGates() > n.declared {
			t.Fatalf("built %d gates, declared %d", got.NumGates(), n.declared)
		}
		total := len(n.inputs) + n.declared
		for _, limit := range []int{0, total / 2, max(total-1, 0), total} {
			lm, err := ReadBENCHLimit(strings.NewReader(src), limit)
			agree(limit, lm, err)
			var se *SizeError
			switch {
			case limit < total && !errors.As(err, &se):
				t.Fatalf("limit %d below %d declared: error %v, want a *SizeError", limit, total, err)
			case limit >= total && (err != nil || textForm(lm) != textForm(got)):
				t.Fatalf("limit %d at %d declared: error %v or a different graph", limit, total, err)
			}
		}
		first := writeBench(t, got, (*MIG).WriteBENCH)
		canon, err := ReadBENCH(strings.NewReader(first))
		if err != nil {
			t.Fatalf("written form does not parse: %v\n%s", err, first)
		}
		w1 := writeBench(t, canon, (*MIG).WriteBENCH)
		again, err := ReadBENCH(strings.NewReader(w1))
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, w1)
		}
		if w2 := writeBench(t, again, (*MIG).WriteBENCH); w2 != w1 {
			t.Fatalf("write→read→write is not a fixpoint\nfirst:\n%s\nsecond:\n%s", w1, w2)
		}
	})
}

// TestBENCHCodecAllocs pins the writer's allocations as independent of
// the gate count and bounds the reader's.
func TestBENCHCodecAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var writes, reads []float64
	for _, gates := range []int{200, 2000} {
		m := randomBenchMIG(rng, 16, gates)
		src := writeBench(t, m, (*MIG).WriteBENCH)
		writes = append(writes, testing.AllocsPerRun(20, func() {
			if err := m.WriteBENCH(io.Discard); err != nil {
				t.Fatal(err)
			}
		}))
		var r strings.Reader
		reads = append(reads, testing.AllocsPerRun(20, func() {
			r.Reset(src)
			if _, err := ReadBENCH(&r); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if writes[0] != writes[1] || writes[1] > 12 {
		t.Errorf("WriteBENCH allocates %v times at 200 gates and %v at 2000; want the same, at most 12", writes[0], writes[1])
	}
	if reads[0] > 40 || reads[1] > 40 {
		t.Errorf("ReadBENCH allocates %v times at 200 gates and %v at 2000; want at most 40", reads[0], reads[1])
	}
	t.Logf("allocations per call at 200 and 2000 gates: write %v, read %v", writes, reads)
}
