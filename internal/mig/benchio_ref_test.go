package mig

// The BENCH codec as it was before it was rewritten for the request path,
// kept as the reference the codec tests compare against.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// writeBENCHRef is WriteBENCH as it was before the codec was rewritten
// for the request path: fmt per line, a map of emitted NOT lines. The
// writer must match it byte for byte.
func writeBENCHRef(m *MIG, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# mighash MIG: %v\n", m.Stats())
	for i := 0; i < m.numPI; i++ {
		fmt.Fprintf(bw, "INPUT(x%d)\n", i)
	}
	for i := range m.outputs {
		fmt.Fprintf(bw, "OUTPUT(o%d)\n", i)
	}
	// The constant node only gets a line when something references it.
	fo := m.FanoutCounts()
	if fo[0] > 0 {
		fmt.Fprintf(bw, "n0 = CONST0\n")
	}
	name := func(id ID) string {
		if m.IsInput(id) {
			return fmt.Sprintf("x%d", m.InputIndex(id))
		}
		return fmt.Sprintf("n%d", id)
	}
	// NOT lines are emitted once per complemented signal actually used.
	notEmitted := map[ID]bool{}
	lit := func(bw *bufio.Writer, l Lit) string {
		if !l.Comp() {
			return name(l.ID())
		}
		inv := name(l.ID()) + "_inv"
		if !notEmitted[l.ID()] {
			fmt.Fprintf(bw, "%s = NOT(%s)\n", inv, name(l.ID()))
			notEmitted[l.ID()] = true
		}
		return inv
	}
	for id := m.numPI + 1; id < len(m.fanin); id++ {
		if fo[id] == 0 {
			continue
		}
		f := m.fanin[id]
		a, b, c := lit(bw, f[0]), lit(bw, f[1]), lit(bw, f[2])
		fmt.Fprintf(bw, "n%d = MAJ(%s, %s, %s)\n", id, a, b, c)
	}
	for i, o := range m.outputs {
		fmt.Fprintf(bw, "o%d = %s(%s)\n", i, map[bool]string{false: "BUF", true: "NOT"}[o.Comp()], name(o.ID()))
	}
	return bw.Flush()
}

// readBENCHRef is ReadBENCH as it was before the codec was rewritten:
// a line scanner, strings.ToUpper per line, and forward references
// resolved by retrying every unbuilt line until no line can be built,
// which is quadratic in reverse-ordered netlists. The reader must accept
// what it accepts (see FuzzReadBENCH for the one exclusion) and build
// the same graph node for node.
func readBENCHRef(r io.Reader) (*MIG, error) {
	type gateLine struct {
		target, op string
		args       []string
		line       int
	}
	var (
		inputNames  []string
		outputNames []string
		gates       []gateLine
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		upper := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(upper, "INPUT(") && strings.HasSuffix(line, ")"):
			inputNames = append(inputNames, strings.TrimSpace(line[6:len(line)-1]))
		case strings.HasPrefix(upper, "OUTPUT(") && strings.HasSuffix(line, ")"):
			outputNames = append(outputNames, strings.TrimSpace(line[7:len(line)-1]))
		default:
			target, rhs, ok := strings.Cut(line, "=")
			if !ok {
				return nil, fmt.Errorf("mig: bench line %d: expected assignment, got %q", lineNo, line)
			}
			rhs = strings.TrimSpace(rhs)
			op := rhs
			var args []string
			if open := strings.IndexByte(rhs, '('); open >= 0 {
				if !strings.HasSuffix(rhs, ")") {
					return nil, fmt.Errorf("mig: bench line %d: unbalanced parentheses in %q", lineNo, line)
				}
				op = strings.TrimSpace(rhs[:open])
				for _, a := range strings.Split(rhs[open+1:len(rhs)-1], ",") {
					if a = strings.TrimSpace(a); a != "" {
						args = append(args, a)
					}
				}
			}
			gates = append(gates, gateLine{
				target: strings.TrimSpace(target), op: strings.ToUpper(op), args: args, line: lineNo,
			})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	m := New(len(inputNames))
	sig := make(map[string]Lit, len(inputNames)+len(gates))
	for i, n := range inputNames {
		sig[n] = m.Input(i)
	}
	// Gate lines may reference later lines; resolve by iterating until no
	// progress (netlists are DAGs, so this terminates in ≤ len passes).
	pending := gates
	for len(pending) > 0 {
		var stuck []gateLine
		progress := false
		for _, g := range pending {
			operands := make([]Lit, len(g.args))
			ready := true
			for i, a := range g.args {
				l, ok := sig[a]
				if !ok {
					ready = false
					break
				}
				operands[i] = l
			}
			if !ready {
				stuck = append(stuck, g)
				continue
			}
			l, err := buildBenchGateRef(m, g.op, operands)
			if err != nil {
				return nil, fmt.Errorf("mig: bench line %d: %v", g.line, err)
			}
			if _, dup := sig[g.target]; dup {
				return nil, fmt.Errorf("mig: bench line %d: %q assigned twice", g.line, g.target)
			}
			sig[g.target] = l
			progress = true
		}
		if !progress {
			names := make([]string, 0, len(stuck))
			for _, g := range stuck {
				names = append(names, g.target)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("mig: bench netlist has undefined or cyclic signals: %s", strings.Join(names, ", "))
		}
		pending = stuck
	}
	for _, n := range outputNames {
		l, ok := sig[n]
		if !ok {
			return nil, fmt.Errorf("mig: bench output %q never defined", n)
		}
		m.AddOutput(l)
	}
	return m, nil
}

// buildBenchGateRef lowers one BENCH operator, named in upper case, onto
// the majority gadgets.
func buildBenchGateRef(m *MIG, op string, args []Lit) (Lit, error) {
	reduce := func(f func(a, b Lit) Lit) (Lit, error) {
		if len(args) < 2 {
			return 0, fmt.Errorf("%s needs at least 2 operands, got %d", op, len(args))
		}
		acc := args[0]
		for _, a := range args[1:] {
			acc = f(acc, a)
		}
		return acc, nil
	}
	unary := func() (Lit, error) {
		if len(args) != 1 {
			return 0, fmt.Errorf("%s needs 1 operand, got %d", op, len(args))
		}
		return args[0], nil
	}
	switch op {
	case "AND":
		return reduce(m.And)
	case "OR":
		return reduce(m.Or)
	case "NAND":
		l, err := reduce(m.And)
		return l.Not(), err
	case "NOR":
		l, err := reduce(m.Or)
		return l.Not(), err
	case "XOR":
		return reduce(m.Xor)
	case "XNOR":
		l, err := reduce(m.Xor)
		return l.Not(), err
	case "NOT":
		l, err := unary()
		return l.Not(), err
	case "BUF", "BUFF":
		return unary()
	case "MAJ":
		if len(args) != 3 {
			return 0, fmt.Errorf("MAJ needs 3 operands, got %d", len(args))
		}
		return m.Maj(args[0], args[1], args[2]), nil
	case "CONST0":
		if len(args) != 0 {
			return 0, fmt.Errorf("CONST0 takes no operands")
		}
		return Const0, nil
	case "CONST1":
		if len(args) != 0 {
			return 0, fmt.Errorf("CONST1 takes no operands")
		}
		return Const1, nil
	default:
		return 0, fmt.Errorf("unsupported gate type %q", op)
	}
}
