package mig

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"mighash/internal/sat"
	"mighash/internal/sim"
)

// Combinational equivalence checking of two MIGs as a two-rung ladder:
// word-parallel simulation first — a few thousand patterns refute almost
// every inequivalent pair in microseconds — and the SAT miter only for
// pairs simulation cannot tell apart. SAT counterexamples flow back into
// the pattern pool (counterexample-guided), so a distinguishing input
// found once is the first probe tried against every later pair.

// DefaultSimPatterns is the prefilter budget of Equivalent: patterns are
// packed 64 per word, so the default costs 32 words per node and sweep.
const DefaultSimPatterns = 2048

// tseitin encodes every reachable gate of m into s, returning one SAT
// literal per primary output. piVars supplies the SAT variable of each
// primary input (shared between the two sides of a miter).
func tseitin(s *sat.Solver, m *MIG, piVars []int) []sat.Lit {
	lits := make([]sat.Lit, len(m.fanin))
	constVar := s.NewVar()
	s.AddClause(sat.NegLit(constVar))
	lits[0] = sat.PosLit(constVar)
	for i := 0; i < m.numPI; i++ {
		lits[i+1] = sat.PosLit(piVars[i])
	}
	conv := func(l Lit) sat.Lit {
		v := lits[l.ID()]
		if l.Comp() {
			v = v.Not()
		}
		return v
	}
	for id := m.numPI + 1; id < len(m.fanin); id++ {
		f := m.fanin[id]
		out := sat.PosLit(s.NewVar())
		s.Majority(out, conv(f[0]), conv(f[1]), conv(f[2]))
		lits[id] = out
	}
	outs := make([]sat.Lit, len(m.outputs))
	for i, o := range m.outputs {
		outs[i] = conv(o)
	}
	return outs
}

// EquivOptions tunes EquivalentOpt.
type EquivOptions struct {
	// Timeout bounds the SAT solver; zero means none. The simulation
	// prefilter is not budgeted — it is microseconds at any setting.
	Timeout time.Duration
	// SimPatterns is the prefilter budget, rounded up to a multiple of
	// 64. Zero means DefaultSimPatterns; negative disables the prefilter
	// (pure SAT, the pre-ladder behavior).
	SimPatterns int
	// Seed makes the random tail of the pattern ladder reproducible.
	// Ignored when Pool is set (the pool owns its seed).
	Seed uint64
	// Pool, when non-nil, supplies the patterns and accumulates
	// counterexamples across calls: SAT models and simulation refutations
	// are Added so later checks replay them first. A nil Pool gets a
	// private per-call pool seeded with Seed.
	Pool *sim.Pool
	// NoSAT makes the check refute-only: pairs the prefilter cannot tell
	// apart count as equivalent without a proof (EquivStats.Proven stays
	// false). This is the differential-verification mode — cheap enough
	// to run after every pass of every pipeline.
	NoSAT bool
}

// EquivStats reports how an equivalence check was decided.
type EquivStats struct {
	// SimPatterns is the number of patterns actually simulated.
	SimPatterns int
	// SimRefuted is set when the prefilter found a distinguishing
	// pattern — the SAT solver never ran.
	SimRefuted bool
	// SATRan is set when the SAT miter was built and solved.
	SATRan bool
	// Proven is set when the verdict is a proof (SAT UNSAT for
	// equivalence, any concrete counterexample for inequivalence) rather
	// than "simulation found nothing" under NoSAT.
	Proven bool
}

// Equivalent checks whether a and b compute the same functions output by
// output, running the simulation prefilter with default budgets before
// the SAT miter. It returns an error when the interfaces mismatch or the
// solver budget (timeout; zero means none) expires; a non-nil
// counterexample carries the full distinguishing input assignment and
// every differing output.
func Equivalent(a, b *MIG, timeout time.Duration) (bool, *Counterexample, error) {
	eq, ce, _, err := EquivalentOpt(a, b, EquivOptions{Timeout: timeout})
	return eq, ce, err
}

// EquivalentOpt is Equivalent with the verification ladder exposed: the
// prefilter budget and pattern pool, the refute-only mode, and statistics
// reporting which rung decided the answer.
func EquivalentOpt(a, b *MIG, opt EquivOptions) (bool, *Counterexample, EquivStats, error) {
	var st EquivStats
	if a.NumPIs() != b.NumPIs() {
		return false, nil, st, fmt.Errorf("mig: input count mismatch: %d vs %d", a.NumPIs(), b.NumPIs())
	}
	if a.NumPOs() != b.NumPOs() {
		return false, nil, st, fmt.Errorf("mig: output count mismatch: %d vs %d", a.NumPOs(), b.NumPOs())
	}
	pool := opt.Pool
	if opt.SimPatterns >= 0 {
		patterns := opt.SimPatterns
		if patterns == 0 {
			patterns = DefaultSimPatterns
		}
		w := (patterns + 63) / 64
		if pool == nil {
			pool = sim.NewPool(a.NumPIs(), opt.Seed)
		}
		if ce, n := simRefute(a, b, pool, w); ce != nil {
			st.SimPatterns = n
			st.SimRefuted, st.Proven = true, true
			return false, ce, st, nil
		} else {
			st.SimPatterns = n
		}
	}
	if opt.NoSAT {
		// Refute-only: simulation found nothing; report equivalent without
		// a proof (Proven stays false).
		return true, nil, st, nil
	}

	st.SATRan = true
	s := sat.New()
	if opt.Timeout > 0 {
		s.Deadline = time.Now().Add(opt.Timeout)
	}
	piVars := make([]int, a.NumPIs())
	for i := range piVars {
		piVars[i] = s.NewVar()
	}
	outA := tseitin(s, a, piVars)
	outB := tseitin(s, b, piVars)
	// One XOR output per pair; the miter asserts that some pair differs.
	diff := make([]sat.Lit, len(outA))
	for i := range outA {
		d := sat.PosLit(s.NewVar())
		// d ↔ outA[i] ⊕ outB[i]
		s.AddClause(d.Not(), outA[i], outB[i])
		s.AddClause(d.Not(), outA[i].Not(), outB[i].Not())
		s.AddClause(d, outA[i].Not(), outB[i])
		s.AddClause(d, outA[i], outB[i].Not())
		diff[i] = d
	}
	s.AddClause(diff...)
	switch s.Solve() {
	case sat.Unsat:
		st.Proven = true
		return true, nil, st, nil
	case sat.Sat:
		st.Proven = true
		ce := &Counterexample{Inputs: make([]bool, len(piVars))}
		for i, v := range piVars {
			ce.Inputs[i] = s.Value(v)
		}
		// Replaying the model through the simulator yields every output it
		// distinguishes — the solver's difference literals only certify at
		// least one — and regression-checks the extraction itself.
		ce.Outputs = diffOutputs(a, b, ce.Inputs)
		if len(ce.Outputs) == 0 {
			// The replay disagreeing with the solver would mean a solver or
			// encoding bug; fall back to the certified literals rather than
			// report an empty counterexample.
			for i, d := range diff {
				if s.ValueLit(d) {
					ce.Outputs = append(ce.Outputs, i)
				}
			}
		}
		if len(ce.Outputs) > 0 {
			ce.Output = ce.Outputs[0]
		}
		if pool != nil {
			// Counterexample-guided: the next check over this pool replays
			// the distinguishing input before anything else.
			pool.Add(ce.Inputs)
		}
		return false, ce, st, nil
	default:
		return false, nil, st, fmt.Errorf("mig: equivalence check timed out after %v", opt.Timeout)
	}
}

// refuteScratch is the reusable state of one simRefute call: both
// compiled circuits, the sweep workspace and both output batches.
type refuteScratch struct {
	ca, cb     sim.Circuit
	ws         *sim.Workspace
	outA, outB []uint64
}

// refuteScratches recycles simRefute's buffers across calls, so a check
// allocates neither NumNodes·w words of node values nor the compiled
// circuits each time it runs.
var refuteScratches = sync.Pool{New: func() any { return &refuteScratch{ws: sim.NewWorkspace()} }}

// simRefute sweeps both graphs over 64·w pool patterns and extracts a
// counterexample from the earliest differing pattern, or nil when the
// batch cannot tell the graphs apart; n reports the patterns simulated.
// Nothing it returns refers to the recycled buffers.
func simRefute(a, b *MIG, pool *sim.Pool, w int) (ce *Counterexample, n int) {
	sc := refuteScratches.Get().(*refuteScratch)
	defer refuteScratches.Put(sc)
	ca, cb := &sc.ca, &sc.cb
	a.compileSim(ca)
	b.compileSim(cb)
	inputs := sc.ws.Inputs(ca.NumPIs, w)
	pool.Fill(inputs, w)
	sc.outA = slices.Grow(sc.outA[:0], ca.NumPOs()*w)[:ca.NumPOs()*w]
	sc.outB = slices.Grow(sc.outB[:0], cb.NumPOs()*w)[:cb.NumPOs()*w]
	outA, outB := sc.outA, sc.outB
	ca.Run(sc.ws, inputs, w, outA)
	cb.Run(sc.ws, inputs, w, outB)
	n = 64 * w
	q, _, differs := sim.Diff(outA, outB, w)
	if !differs {
		return nil, n
	}
	ce = &Counterexample{
		Inputs:  sim.Assignment(inputs, w, ca.NumPIs, q),
		Outputs: sim.DiffOutputs(outA, outB, w, q),
	}
	ce.Output = ce.Outputs[0]
	pool.Add(ce.Inputs)
	return ce, n
}

// diffOutputs evaluates both graphs on one assignment and returns every
// differing output index.
func diffOutputs(a, b *MIG, inputs []bool) []int {
	ra, rb := a.EvalBits(inputs), b.EvalBits(inputs)
	var outs []int
	for i := range ra {
		if ra[i] != rb[i] {
			outs = append(outs, i)
		}
	}
	return outs
}

// Counterexample is an input assignment on which two MIGs disagree.
type Counterexample struct {
	// Inputs is the full primary-input assignment, one value per PI.
	Inputs []bool
	// Outputs lists every primary output differing under Inputs, in
	// order; Output repeats the first for compatibility.
	Outputs []int
	Output  int
}

func (c *Counterexample) String() string {
	if len(c.Outputs) > 1 {
		return fmt.Sprintf("outputs %v differ on inputs %v", c.Outputs, c.Inputs)
	}
	return fmt.Sprintf("output %d differs on inputs %v", c.Output, c.Inputs)
}
