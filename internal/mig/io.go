package mig

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteText serializes the MIG in a minimal line-oriented format:
//
//	mig <numPI> <numGates> <numPO>
//	<a> <b> <c>        one line per gate, children as literals 2*id+comp
//	out <lit>          one line per primary output
//
// Gate IDs are implicit: the i-th gate line defines node numPI+1+i. The
// format round-trips through ReadText and is the storage format of the
// optimal-MIG database artifact.
func (m *MIG) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "mig %d %d %d\n", m.numPI, m.NumGates(), len(m.outputs))
	for id := m.numPI + 1; id < len(m.fanin); id++ {
		f := m.fanin[id]
		fmt.Fprintf(bw, "%d %d %d\n", uint32(f[0]), uint32(f[1]), uint32(f[2]))
	}
	for _, o := range m.outputs {
		fmt.Fprintf(bw, "out %d\n", uint32(o))
	}
	return bw.Flush()
}

// ReadText parses the format produced by WriteText. The gates are re-added
// through Maj, so the result is structurally hashed (and may be smaller
// than the input if it contained redundancies); literal identities of the
// source are preserved via remapping.
func ReadText(r io.Reader) (*MIG, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("mig: empty input")
	}
	var numPI, numGates, numPO int
	if _, err := fmt.Sscanf(sc.Text(), "mig %d %d %d", &numPI, &numGates, &numPO); err != nil {
		return nil, fmt.Errorf("mig: bad header %q: %v", sc.Text(), err)
	}
	// Node IDs run up to numPI+numGates, and a Lit holds 2*id+1 in 32 bits.
	const maxID = 1<<31 - 1
	if numPI < 0 || numGates < 0 || numPO < 0 || numPI > maxID || numGates > maxID-numPI {
		return nil, fmt.Errorf("mig: bad header %q: counts must be non-negative, with at most %d inputs and gates together", sc.Text(), maxID)
	}
	m := New(numPI)
	// old literal -> new literal; terminals map to themselves. It grows
	// per gate line rather than from the header's count, so a short input
	// claiming many gates fails as truncated without allocating for them.
	lmap := make([]Lit, 1+numPI)
	for i := range lmap {
		lmap[i] = MakeLit(ID(i), false)
	}
	conv := func(raw uint64) (Lit, error) {
		old := Lit(raw)
		if int(old.ID()) >= len(lmap) {
			return 0, fmt.Errorf("mig: literal %d refers to a node defined later", raw)
		}
		return lmap[old.ID()].NotIf(old.Comp()), nil
	}
	for g := 0; g < numGates; g++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("mig: truncated input: expected %d gates, got %d", numGates, g)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			return nil, fmt.Errorf("mig: bad gate line %q", sc.Text())
		}
		var ch [3]Lit
		for i, f := range fields {
			raw, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("mig: bad literal %q: %v", f, err)
			}
			l, err := conv(raw)
			if err != nil {
				return nil, err
			}
			ch[i] = l
		}
		lmap = append(lmap, m.Maj(ch[0], ch[1], ch[2]))
	}
	for p := 0; p < numPO; p++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("mig: truncated input: expected %d outputs, got %d", numPO, p)
		}
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "out ") {
			return nil, fmt.Errorf("mig: bad output line %q", line)
		}
		raw, err := strconv.ParseUint(strings.TrimSpace(line[4:]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("mig: bad output literal: %v", err)
		}
		l, err := conv(raw)
		if err != nil {
			return nil, err
		}
		m.AddOutput(l)
	}
	return m, sc.Err()
}

// WriteDOT emits a Graphviz rendering in the visual style of the paper's
// figures: circles for majority gates, boxes for terminals, dashed edges
// for complemented signals.
func (m *MIG) WriteDOT(w io.Writer, name string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=BT;\n", name)
	fo := m.FanoutCounts()
	if fo[0] > 0 {
		fmt.Fprintf(bw, "  n0 [shape=box,label=\"0\"];\n")
	}
	for i := 0; i < m.numPI; i++ {
		if fo[i+1] > 0 {
			fmt.Fprintf(bw, "  n%d [shape=box,label=\"x%d\"];\n", i+1, i+1)
		}
	}
	for id := m.numPI + 1; id < len(m.fanin); id++ {
		if fo[id] == 0 {
			continue
		}
		fmt.Fprintf(bw, "  n%d [shape=circle,label=\"maj\"];\n", id)
		for _, ch := range m.fanin[id] {
			style := "solid"
			if ch.Comp() {
				style = "dashed"
			}
			fmt.Fprintf(bw, "  n%d -> n%d [style=%s];\n", ch.ID(), id, style)
		}
	}
	for i, o := range m.outputs {
		style := "solid"
		if o.Comp() {
			style = "dashed"
		}
		fmt.Fprintf(bw, "  y%d [shape=plaintext,label=\"y%d\"];\n", i, i)
		fmt.Fprintf(bw, "  n%d -> y%d [style=%s];\n", o.ID(), i, style)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
