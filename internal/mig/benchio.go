package mig

// BENCH-format interchange (the ISCAS/LGSynth netlist dialect used by
// ABC and academic tools), extended with a ternary MAJ gate. This is the
// bridge between the library and external benchmark suites: WriteBENCH
// materializes complemented edges as explicit NOT lines, ReadBENCH
// rebuilds any AND/OR/NAND/NOR/NOT/BUF/XOR/XNOR/MAJ netlist as an MIG
// through the majority gadgets.
//
// Both directions sit on the HTTP service's request path, so they work
// line by line without fmt: the writer appends into one reused line
// buffer, the reader slices names out of one copy of its input.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WriteBENCH renders the MIG in BENCH format. Inputs are named x0, x1, …
// in order; outputs o0, o1, …; internal gates n<id>.
func (m *MIG) WriteBENCH(w io.Writer) error {
	bw := bufio.NewWriter(w)
	// The header's size counts the live gates of the fanout sweep the body
	// needs anyway (a gate is live exactly when its count is positive),
	// and its depth reads the stored levels of the outputs.
	fo := m.FanoutCounts()
	size := 0
	for _, n := range fo[m.numPI+1:] {
		if n > 0 {
			size++
		}
	}
	st := Stats{PIs: m.numPI, POs: len(m.outputs), Size: size, Depth: m.Depth()}
	line := st.appendTo(append(make([]byte, 0, 128), "# mighash MIG: "...))
	bw.Write(append(line, '\n'))
	for i := 0; i < m.numPI; i++ {
		line = strconv.AppendInt(append(line[:0], "INPUT(x"...), int64(i), 10)
		line = append(line, ")\n"...)
		bw.Write(line)
	}
	for i := range m.outputs {
		line = strconv.AppendInt(append(line[:0], "OUTPUT(o"...), int64(i), 10)
		line = append(line, ")\n"...)
		bw.Write(line)
	}
	// The constant node only gets a line when something references it.
	if fo[0] > 0 {
		bw.WriteString("n0 = CONST0\n")
	}
	// NOT lines are emitted once per complemented signal actually used,
	// just before the first gate line that needs them.
	inv := make([]bool, len(m.fanin))
	for id := m.numPI + 1; id < len(m.fanin); id++ {
		if fo[id] == 0 {
			continue
		}
		f := m.fanin[id]
		for _, l := range f {
			if c := l.ID(); l.Comp() && !inv[c] {
				inv[c] = true
				line = append(m.appendBenchLit(line[:0], l), " = NOT("...)
				line = append(m.appendBenchName(line, c), ")\n"...)
				bw.Write(line)
			}
		}
		line = append(m.appendBenchName(line[:0], ID(id)), " = MAJ("...)
		line = append(m.appendBenchLit(line, f[0]), ", "...)
		line = append(m.appendBenchLit(line, f[1]), ", "...)
		line = append(m.appendBenchLit(line, f[2]), ")\n"...)
		bw.Write(line)
	}
	for i, o := range m.outputs {
		line = strconv.AppendInt(append(line[:0], 'o'), int64(i), 10)
		if o.Comp() {
			line = append(line, " = NOT("...)
		} else {
			line = append(line, " = BUF("...)
		}
		line = append(m.appendBenchName(line, o.ID()), ")\n"...)
		bw.Write(line)
	}
	return bw.Flush()
}

// appendBenchName appends the BENCH name of node id: x<index> for an
// input, n<id> for the constant and for gates.
func (m *MIG) appendBenchName(b []byte, id ID) []byte {
	if m.IsInput(id) {
		return strconv.AppendInt(append(b, 'x'), int64(m.InputIndex(id)), 10)
	}
	return strconv.AppendUint(append(b, 'n'), uint64(id), 10)
}

// appendBenchLit appends the name of signal l: the node's name, with an
// _inv suffix (the target of the node's NOT line) when complemented.
func (m *MIG) appendBenchLit(b []byte, l Lit) []byte {
	b = m.appendBenchName(b, l.ID())
	if l.Comp() {
		b = append(b, "_inv"...)
	}
	return b
}

// maxBenchLine is the longest line ReadBENCH accepts, in bytes without
// the newline. A longer line fails with bufio.ErrTooLong: the limit and
// the error of a bufio.Scanner with a 16 MiB token cap, which callers
// may rely on.
const maxBenchLine = 1<<24 - 1

// ReadBENCH parses a BENCH netlist into an MIG. Supported gate types:
// AND, OR, NAND, NOR, NOT, BUF/BUFF, XOR, XNOR, MAJ, CONST0, CONST1;
// AND/OR/NAND/NOR accept two or more operands (reduced left to right).
// Inputs keep their file order. Keywords are matched without regard to
// ASCII case.
//
// A gate line may use signals defined on later lines. Gates are built
// in rounds, as if every still-unbuilt line were retried in file order
// until no line can be built, but the rounds are computed up front, so
// parsing takes time linear in the size of the netlist whatever the
// order of its lines.
func ReadBENCH(r io.Reader) (*MIG, error) { return ReadBENCHLimit(r, -1) }

// ReadBENCHLimit is ReadBENCH with a size limit for untrusted input. It
// counts what the netlist declares: its INPUT lines plus the gates its
// gate lines lower to (1 per MAJ, k−1 per k-operand AND, OR, NAND or
// NOR, 3(k−1) per k-operand XOR or XNOR, none otherwise), which the
// built graph can never exceed. The scan stops with a *SizeError on the
// line where the count passes limit, before any graph is built. A
// negative limit disables the check.
//
// ReadBENCHLimit reads all of r into one string first; a caller that
// already holds the netlist as a string calls ParseBENCH instead.
func ReadBENCHLimit(r io.Reader, limit int) (*MIG, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, err
	}
	return ParseBENCH(sb.String(), limit)
}

// ParseBENCH is ReadBENCHLimit over a netlist held in memory. It scans
// src in place, so refusing a netlist over the limit costs the lines up
// to the refusing one, not a copy of src.
func ParseBENCH(src string, limit int) (*MIG, error) {
	if len(src) > math.MaxInt32 {
		return nil, fmt.Errorf("mig: bench netlist of %d bytes exceeds the 2 GiB limit", len(src))
	}
	var n benchNetlist
	if err := n.scan(src, limit); err != nil {
		return nil, err
	}
	return n.build()
}

// benchOp is a gate operator, folded to upper case once per line.
type benchOp uint8

const (
	opUnsupported benchOp = iota
	opAnd
	opOr
	opNand
	opNor
	opXor
	opXnor
	opNot
	opBuf
	opBuff
	opMaj
	opConst0
	opConst1
)

// benchOpNames spells every supported operator as error messages quote it.
var benchOpNames = [...]string{
	opAnd: "AND", opOr: "OR", opNand: "NAND", opNor: "NOR", opXor: "XOR",
	opXnor: "XNOR", opNot: "NOT", opBuf: "BUF", opBuff: "BUFF", opMaj: "MAJ",
	opConst0: "CONST0", opConst1: "CONST1",
}

// parseBenchOp returns the operator s spells in any ASCII case.
func parseBenchOp(s string) benchOp {
	for op, name := range benchOpNames {
		if name != "" && len(s) == len(name) && hasKeyword(s, name) {
			return benchOp(op)
		}
	}
	return opUnsupported
}

// hasKeyword reports whether line starts with keyword (upper case) in
// any ASCII case.
func hasKeyword(line, keyword string) bool {
	if len(line) < len(keyword) {
		return false
	}
	for i := 0; i < len(keyword); i++ {
		c := line[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != keyword[i] {
			return false
		}
	}
	return true
}

// Symbol definitions other than a gate index.
const (
	symUndefined int32 = -1
	symInput     int32 = -2
)

// benchSym is one signal name of the netlist.
type benchSym struct {
	name string // a substring of the netlist
	// def is the first gate line assigning the name, or symInput, or
	// symUndefined. Operands wait for it; later assignments are built in
	// their turn and rejected as duplicates.
	def int32
	val Lit  // the signal, once set
	set bool // an input, or a gate line assigning the name was built
}

// Scheduling states of a gate line.
const (
	gateUnseen uint8 = iota
	gateOpen         // its operands are being resolved
	gateDone         // round known
	gateStuck        // depends on an undefined signal or on a cycle
)

// benchGate is one gate line.
type benchGate struct {
	target int32 // symbol assigned
	line   int32 // for error messages
	lo, hi int32 // operand symbols are args[lo:hi]
	// round is the round in which the retry loop documented on
	// ReadBENCH builds the line; see schedule.
	round int32
	op    benchOp
	state uint8
}

// benchNetlist is a scanned netlist: names interned as symbols, gate
// lines with their operands in one shared slice.
type benchNetlist struct {
	syms    []benchSym
	index   map[string]int32 // name → symbol
	inputs  []int32          // symbol of each INPUT line, in file order
	outputs []int32          // symbol of each OUTPUT line, in file order
	gates   []benchGate      // in file order
	args    []int32
	// unsupported holds the operator text of gate lines whose operator is
	// not supported, by gate index; the error is reported only if the
	// line is reached in build order.
	unsupported map[int32]string
	declared    int // gates the gate lines lower to; see ReadBENCHLimit
}

// scan reads every line of src in one pass, failing with a *SizeError
// once the inputs and declared gates pass limit (if limit >= 0).
func (n *benchNetlist) scan(src string, limit int) error {
	lines := strings.Count(src, "\n") + 1
	args := lines + strings.Count(src, ",")
	if limit >= 0 {
		// Presize for limit+1 lines of up to three operands, not for the
		// whole body: a netlist over the limit is refused before it fills
		// them, and appends grow them for lines that count no gate.
		lines, args = min(lines, limit+1), min(args, 3*(limit+1))
	}
	n.index = make(map[string]int32, lines)
	n.syms = make([]benchSym, 0, lines)
	n.gates = make([]benchGate, 0, lines)
	n.args = make([]int32, 0, args)
	lineNo := 0
	for rest := src; rest != ""; {
		lineNo++
		raw := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			raw, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if len(raw) > maxBenchLine {
			return bufio.ErrTooLong
		}
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		last := line[len(line)-1]
		switch {
		case last == ')' && hasKeyword(line, "INPUT("):
			s := n.symbol(strings.TrimSpace(line[6 : len(line)-1]))
			n.syms[s].def = symInput
			n.inputs = append(n.inputs, s)
		case last == ')' && hasKeyword(line, "OUTPUT("):
			n.outputs = append(n.outputs, n.symbol(strings.TrimSpace(line[7:len(line)-1])))
		default:
			if err := n.scanGate(line, lineNo); err != nil {
				return err
			}
		}
		if limit >= 0 && len(n.inputs)+n.declared > limit {
			return &SizeError{Inputs: len(n.inputs), Gates: n.declared, Limit: limit}
		}
	}
	return nil
}

// scanGate records the assignment line "target = OP(a, b, …)" or
// "target = OP".
func (n *benchNetlist) scanGate(line string, lineNo int) error {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return fmt.Errorf("mig: bench line %d: expected assignment, got %q", lineNo, line)
	}
	target := n.symbol(strings.TrimSpace(line[:eq]))
	rhs := strings.TrimSpace(line[eq+1:])
	g := benchGate{target: target, line: int32(lineNo), lo: int32(len(n.args))}
	opText := rhs
	if open := strings.IndexByte(rhs, '('); open >= 0 {
		if rhs[len(rhs)-1] != ')' {
			return fmt.Errorf("mig: bench line %d: unbalanced parentheses in %q", lineNo, line)
		}
		opText = strings.TrimSpace(rhs[:open])
		for rest := rhs[open+1 : len(rhs)-1]; ; {
			arg, next, more := strings.Cut(rest, ",")
			if arg = strings.TrimSpace(arg); arg != "" {
				n.args = append(n.args, n.symbol(arg))
			}
			if !more {
				break
			}
			rest = next
		}
	}
	g.hi = int32(len(n.args))
	gi := int32(len(n.gates))
	k := int(g.hi - g.lo)
	switch g.op = parseBenchOp(opText); g.op {
	case opMaj:
		n.declared++
	case opAnd, opOr, opNand, opNor:
		n.declared += max(k-1, 0)
	case opXor, opXnor:
		n.declared += 3 * max(k-1, 0)
	case opUnsupported:
		if n.unsupported == nil {
			n.unsupported = map[int32]string{}
		}
		n.unsupported[gi] = opText
	}
	if n.syms[target].def == symUndefined {
		n.syms[target].def = gi
	}
	n.gates = append(n.gates, g)
	return nil
}

// symbol interns name.
func (n *benchNetlist) symbol(name string) int32 {
	if s, ok := n.index[name]; ok {
		return s
	}
	s := int32(len(n.syms))
	n.index[name] = s
	n.syms = append(n.syms, benchSym{name: name, def: symUndefined})
	return s
}

// schedule sets the round of every gate line that can be built and
// returns the largest round. Inputs are available from round 0; a line
// is built in the first round in which all its operands are, and a
// signal assigned by line d is available to line g from round
// round(d) when d comes first in the file and from round(d)+1 when it
// comes later. Rounds are found by one depth-first walk over the
// operand references, so each reference is followed once; lines that
// depend on an undefined signal or on a cycle are left stuck.
func (n *benchNetlist) schedule() int32 {
	type frame struct{ g, k int32 } // gate line, next operand
	var stack []frame
	maxRound := int32(0)
	for root := range n.gates {
		if n.gates[root].state != gateUnseen {
			continue
		}
		n.gates[root].state = gateOpen
		stack = append(stack[:0], frame{int32(root), n.gates[root].lo})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			g := &n.gates[f.g]
			if f.k == g.hi {
				g.state = gateDone
				maxRound = max(maxRound, g.round)
				stack = stack[:len(stack)-1]
				continue
			}
			round := int32(0)
			if d := n.syms[n.args[f.k]].def; d != symInput {
				if d == symUndefined {
					g.state = gateStuck
					stack = stack[:len(stack)-1]
					continue
				}
				dg := &n.gates[d]
				switch dg.state {
				case gateUnseen:
					// Resolve d first; this operand is looked at again
					// when d's frame is popped.
					dg.state = gateOpen
					stack = append(stack, frame{d, dg.lo})
					continue
				case gateOpen, gateStuck:
					// A stuck d leaves g stuck, and so does an open
					// one, which depends on g: a cycle.
					g.state = gateStuck
					stack = stack[:len(stack)-1]
					continue
				}
				round = dg.round
				if d > f.g {
					round++
				}
			}
			g.round = max(g.round, round)
			f.k++
		}
	}
	return maxRound
}

// build schedules the gate lines and builds them in (round, line) order,
// then checks for unbuildable lines and connects the outputs.
func (n *benchNetlist) build() (*MIG, error) {
	m := New(len(n.inputs))
	m.reserve(n.declared)
	for i, s := range n.inputs {
		n.syms[s].val, n.syms[s].set = m.Input(i), true
	}
	// A counting sort by round, stable in file order.
	rounds := n.schedule()
	start := make([]int32, rounds+2)
	for _, g := range n.gates {
		if g.state == gateDone {
			start[g.round+1]++
		}
	}
	for r := 1; r < len(start); r++ {
		start[r] += start[r-1]
	}
	order := make([]int32, start[len(start)-1])
	for gi, g := range n.gates {
		if g.state == gateDone {
			order[start[g.round]] = int32(gi)
			start[g.round]++
		}
	}
	var ops []Lit
	for _, gi := range order {
		g := &n.gates[gi]
		if g.op == opUnsupported {
			return nil, fmt.Errorf("mig: bench line %d: unsupported gate type %q",
				g.line, strings.ToUpper(n.unsupported[gi]))
		}
		ops = ops[:0]
		for _, s := range n.args[g.lo:g.hi] {
			ops = append(ops, n.syms[s].val)
		}
		l, err := buildBenchGate(m, g.op, ops)
		if err != nil {
			return nil, fmt.Errorf("mig: bench line %d: %v", g.line, err)
		}
		t := &n.syms[g.target]
		if t.set {
			return nil, fmt.Errorf("mig: bench line %d: %q assigned twice", g.line, t.name)
		}
		t.val, t.set = l, true
	}
	if len(order) < len(n.gates) {
		var names []string
		for _, g := range n.gates {
			if g.state == gateStuck {
				names = append(names, n.syms[g.target].name)
			}
		}
		sort.Strings(names)
		return nil, fmt.Errorf("mig: bench netlist has undefined or cyclic signals: %s", strings.Join(names, ", "))
	}
	for _, s := range n.outputs {
		if !n.syms[s].set {
			return nil, fmt.Errorf("mig: bench output %q never defined", n.syms[s].name)
		}
		m.AddOutput(n.syms[s].val)
	}
	return m, nil
}

// buildBenchGate lowers one supported BENCH operator onto the majority
// gadgets.
func buildBenchGate(m *MIG, op benchOp, args []Lit) (Lit, error) {
	name := benchOpNames[op]
	switch op {
	case opAnd, opOr, opNand, opNor, opXor, opXnor:
		if len(args) < 2 {
			return 0, fmt.Errorf("%s needs at least 2 operands, got %d", name, len(args))
		}
		acc := args[0]
		for _, a := range args[1:] {
			switch op {
			case opAnd, opNand:
				acc = m.And(acc, a)
			case opOr, opNor:
				acc = m.Or(acc, a)
			default:
				acc = m.Xor(acc, a)
			}
		}
		return acc.NotIf(op == opNand || op == opNor || op == opXnor), nil
	case opNot, opBuf, opBuff:
		if len(args) != 1 {
			return 0, fmt.Errorf("%s needs 1 operand, got %d", name, len(args))
		}
		return args[0].NotIf(op == opNot), nil
	case opMaj:
		if len(args) != 3 {
			return 0, fmt.Errorf("MAJ needs 3 operands, got %d", len(args))
		}
		return m.Maj(args[0], args[1], args[2]), nil
	default: // CONST0, CONST1
		if len(args) != 0 {
			return 0, fmt.Errorf("%s takes no operands", name)
		}
		return Const0.NotIf(op == opConst1), nil
	}
}
