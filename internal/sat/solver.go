package sat

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"
)

// Lit is a literal: variable index shifted left once, with the low bit set
// for negated literals.
type Lit uint32

// MkLit returns the literal of variable v, negated if neg is true.
func MkLit(v int, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of variable v.
func PosLit(v int) Lit { return Lit(v) << 1 }

// NegLit returns the negative literal of variable v.
func NegLit(v int) Lit { return Lit(v)<<1 | 1 }

// Var returns the variable index of l.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether l is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// Not returns the complement of l.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal in DIMACS-like form.
func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// Status is the result of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota // budget exhausted before a decision was reached
	Sat                   // a satisfying assignment was found
	Unsat                 // the formula is unsatisfiable
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

const (
	lUndef int8 = 0
	lTrue  int8 = 1
	lFalse int8 = -1
)

type clause struct {
	lits    []Lit // a window into one of the solver's literal slabs
	act     float64
	lbd     int32
	learnt  bool
	deleted bool
}

type watcher struct {
	cref    int32
	blocker Lit
}

// Stats collects solver counters, useful for the Table I runtime report.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learnt       int64
}

// slabMax caps the size, in literals, of one clause-literal slab. Slabs
// start small and double up to this size, so a small formula holds little
// more memory than its literals and a large one allocates once per 256 KiB.
const slabMax = 1 << 16

// Solver is a CDCL SAT solver. The zero value is not usable; create
// instances with New.
type Solver struct {
	clauses []clause
	watches [][]watcher
	slab    []Lit // the current literal slab; clauses are appended to it
	learnts int   // live (learnt and not deleted) clauses

	vals    []int8  // current value per literal, indexed by Lit
	level   []int32 // decision level per assigned variable
	reason  []int32 // antecedent clause per assigned variable (-1 = decision)
	trail   []Lit
	trailLi []int // trail index delimiting each decision level
	qhead   int

	activity []float64
	varInc   float64
	polarity []bool // saved phases
	heap     *varHeap

	// Scratch owned by conflict analysis and clause-database reduction,
	// reused across conflicts so that neither allocates in steady state.
	seen     []byte
	analyzeT []Lit    // variables marked during minimization, for undo
	learnt   []Lit    // the clause analyze builds
	stack    []Lit    // litRedundant's depth-first stack
	lbdMark  []uint32 // per decision level: the lbdEpoch that last counted it
	lbdEpoch uint32
	locked   []bool  // per clause: a reason on the trail (reduceDB only)
	reduce   []int32 // reduceDB's deletion candidates

	ok    bool   // false once an empty clause is derived
	model []int8 // per-literal value snapshot of the last Sat result

	claInc      float64
	maxLearnts  float64
	lubyIdx     int64
	propBudget  int64
	MaxConflict int64           // conflict budget for a Solve call; <=0 means unlimited
	Deadline    time.Time       // wall-clock budget; zero means unlimited
	Ctx         context.Context // external cancellation; nil means none

	Stats Stats
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		ok:     true,
		varInc: 1,
		claInc: 1,
		heap:   newVarHeap(),
	}
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.level) }

// NumClauses returns the number of problem (non-learnt) clauses.
func (s *Solver) NumClauses() int {
	n := 0
	for i := range s.clauses {
		if !s.clauses[i].learnt && !s.clauses[i].deleted {
			n++
		}
	}
	return n
}

// NewVar creates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.level)
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, true) // default phase: false (sign=true)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.heap.insert(v, s.activity)
	return v
}

func (s *Solver) valueLit(l Lit) int8 { return s.vals[l] }

// Value returns the model value of variable v after a Sat result.
func (s *Solver) Value(v int) bool { return s.model[PosLit(v)] == lTrue }

// ValueLit returns the model value of literal l after a Sat result.
func (s *Solver) ValueLit(l Lit) bool { return s.model[l] == lTrue }

// AddClause adds a clause over the given literals. It returns false if the
// solver is already in an unsatisfiable state (now or as a result of this
// clause). Tautologies are silently dropped; duplicate literals are merged.
// Clauses may only be added at decision level 0 (i.e. between Solve calls).
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0) // a previous Solve may have left the model trail in place
	// Normalize: sort, remove duplicates, drop tautologies and literals
	// already false at level 0, succeed on literals already true.
	slices.Sort(lits)
	out := lits[:0]
	var prev Lit = ^Lit(0)
	for _, l := range lits {
		if l == prev {
			continue
		}
		if prev != ^Lit(0) && l == prev.Not() {
			return true // tautology
		}
		switch s.valueLit(l) {
		case lTrue:
			return true // already satisfied
		case lFalse:
			prev = l
			continue // already falsified at level 0
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.enqueue(out[0], -1)
		if s.propagate() != -1 {
			s.ok = false
			return false
		}
		return true
	}
	s.attachClause(s.pushClause(out, false))
	return true
}

// pushClause stores a copy of lits at the end of the current slab, or of
// a fresh one when it does not fit, and appends the clause. Clause
// literals are never freed (reduceDB only marks clauses deleted), so the
// slabs only grow.
func (s *Solver) pushClause(lits []Lit, learnt bool) int32 {
	if len(lits) > cap(s.slab)-len(s.slab) {
		s.slab = make([]Lit, 0, max(min(2*cap(s.slab), slabMax), len(lits), 64))
	}
	start := len(s.slab)
	s.slab = append(s.slab, lits...)
	c := clause{lits: s.slab[start:len(s.slab):len(s.slab)], learnt: learnt, act: s.claInc}
	cref := int32(len(s.clauses))
	s.clauses = append(s.clauses, c)
	if learnt {
		s.Stats.Learnt++
		s.learnts++
	}
	return cref
}

func (s *Solver) attachClause(cref int32) {
	c := &s.clauses[cref]
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{cref, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{cref, c.lits[0]})
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLi)) }

func (s *Solver) enqueue(l Lit, from int32) {
	v := l.Var()
	s.vals[l] = lTrue
	s.vals[l.Not()] = lFalse
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation and returns the reference of a
// conflicting clause, or -1 if no conflict arises. Neither the literal
// values nor the clause list grow while it runs, so it reads both
// through local slice headers.
func (s *Solver) propagate() int32 {
	vals, clauses := s.vals, s.clauses
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		falseLit := p.Not()
		ws := s.watches[p]
		n := 0
	nextWatch:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if vals[w.blocker] == lTrue {
				ws[n] = w
				n++
				continue
			}
			c := &clauses[w.cref]
			if c.deleted {
				continue
			}
			lits := c.lits
			// Ensure the false literal is at position 1.
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], falseLit
			}
			first := lits[0]
			if first != w.blocker && vals[first] == lTrue {
				ws[n] = watcher{w.cref, first}
				n++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nw := lits[1].Not()
					s.watches[nw] = append(s.watches[nw], watcher{w.cref, first})
					continue nextWatch
				}
			}
			// Clause is unit or conflicting.
			ws[n] = w
			n++
			if vals[first] == lFalse {
				// Conflict: keep the remaining watchers and bail out.
				for i++; i < len(ws); i++ {
					ws[n] = ws[i]
					n++
				}
				s.watches[p] = ws[:n]
				s.qhead = len(s.trail)
				return w.cref
			}
			s.enqueue(first, w.cref)
		}
		s.watches[p] = ws[:n]
	}
	return -1
}

func (s *Solver) newDecisionLevel() { s.trailLi = append(s.trailLi, len(s.trail)) }

func (s *Solver) cancelUntil(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLi[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.polarity[v] = l.Sign()
		s.vals[l] = lUndef
		s.vals[l.Not()] = lUndef
		s.reason[v] = -1
		s.heap.insertIfAbsent(v, s.activity)
	}
	s.trail = s.trail[:bound]
	s.trailLi = s.trailLi[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v, s.activity)
}

func (s *Solver) bumpClause(c *clause) {
	c.act += s.claInc
	if c.act > 1e20 {
		for i := range s.clauses {
			s.clauses[i].act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// analyze performs first-UIP conflict analysis. It returns the learnt
// clause (asserting literal first) and the backtrack level. The clause
// lives in solver scratch and is valid until the next call.
func (s *Solver) analyze(confl int32) ([]Lit, int32) {
	learnt := append(s.learnt[:0], 0) // reserve slot for the asserting literal
	counter := 0
	idx := len(s.trail) - 1
	var p Lit = ^Lit(0)

	for {
		c := &s.clauses[confl]
		if c.learnt {
			s.bumpClause(c)
		}
		start := 0
		if p != ^Lit(0) {
			start = 1
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.seen[v] = 1
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find the next literal of the current level on the trail.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = 0
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Conflict-clause minimization: remove literals implied by the rest.
	s.analyzeT = s.analyzeT[:0]
	for _, l := range learnt[1:] {
		s.analyzeT = append(s.analyzeT, l)
		s.seen[l.Var()] = 1
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		if s.reason[learnt[i].Var()] == -1 || !s.litRedundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]
	for _, l := range s.analyzeT {
		s.seen[l.Var()] = 0
	}

	// Compute the backtrack level: the second-highest level in the clause.
	btLevel := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}
	s.learnt = learnt
	return learnt, btLevel
}

// litRedundant reports whether l is implied by the remaining learnt-clause
// literals, walking the implication graph (recursive minimization).
func (s *Solver) litRedundant(l Lit) bool {
	stack := append(s.stack[:0], l)
	top := len(s.analyzeT)
	for len(stack) > 0 {
		v := stack[len(stack)-1].Var()
		stack = stack[:len(stack)-1]
		cref := s.reason[v]
		c := &s.clauses[cref]
		for _, q := range c.lits {
			qv := q.Var()
			if qv == v || s.seen[qv] != 0 || s.level[qv] == 0 {
				continue
			}
			if s.reason[qv] == -1 {
				// Decision variable not in the clause: l is not redundant;
				// undo the markings added during this check.
				for _, m := range s.analyzeT[top:] {
					s.seen[m.Var()] = 0
				}
				s.analyzeT = s.analyzeT[:top]
				s.stack = stack
				return false
			}
			s.seen[qv] = 1
			s.analyzeT = append(s.analyzeT, q)
			stack = append(stack, q)
		}
	}
	s.stack = stack
	return true
}

// computeLBD returns the number of distinct decision levels among lits.
// Each call counts under a fresh epoch, so the per-level marks never need
// clearing (except once when the epoch wraps).
func (s *Solver) computeLBD(lits []Lit) int32 {
	s.lbdEpoch++
	if s.lbdEpoch == 0 {
		clear(s.lbdMark)
		s.lbdEpoch = 1
	}
	n := int32(0)
	for _, l := range lits {
		lv := s.level[l.Var()]
		if int(lv) >= len(s.lbdMark) {
			s.lbdMark = append(s.lbdMark, make([]uint32, int(lv)+1-len(s.lbdMark))...)
		}
		if s.lbdMark[lv] != s.lbdEpoch {
			s.lbdMark[lv] = s.lbdEpoch
			n++
		}
	}
	return n
}

func (s *Solver) reduceDB() {
	// Collect learnt clauses that are not reasons for current assignments.
	if len(s.locked) < len(s.clauses) {
		s.locked = append(s.locked, make([]bool, len(s.clauses)-len(s.locked))...)
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r >= 0 {
			s.locked[r] = true
		}
	}
	learnts := s.reduce[:0]
	for i := range s.clauses {
		c := &s.clauses[i]
		if c.learnt && !c.deleted && !s.locked[i] && len(c.lits) > 2 {
			learnts = append(learnts, int32(i))
		}
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r >= 0 {
			s.locked[r] = false
		}
	}
	// Highest LBD first, then lowest activity. slices.SortFunc runs the
	// same pattern-defeating quicksort as sort.Slice, so clauses that tie
	// on both keep the order, and the deletions, that sort.Slice gave them.
	slices.SortFunc(learnts, func(a, b int32) int {
		ca, cb := &s.clauses[a], &s.clauses[b]
		if ca.lbd != cb.lbd {
			return cmp.Compare(cb.lbd, ca.lbd)
		}
		return cmp.Compare(ca.act, cb.act)
	})
	for _, cref := range learnts[:len(learnts)/2] {
		if s.clauses[cref].lbd <= 2 {
			continue
		}
		s.clauses[cref].deleted = true
		s.learnts--
	}
	s.reduce = learnts
	// Purge deleted clauses from the watch lists.
	for li := range s.watches {
		ws := s.watches[li]
		n := 0
		for _, w := range ws {
			if !s.clauses[w.cref].deleted {
				ws[n] = w
				n++
			}
		}
		s.watches[li] = ws[:n]
	}
}

// luby returns the i-th element (0-based) of the Luby restart sequence
// 1, 1, 2, 1, 1, 2, 4, …
func luby(i int64) int64 {
	size, seq := int64(1), uint(0)
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) >> 1
		seq--
		i %= size
	}
	return 1 << seq
}

// Solve searches for a satisfying assignment under the given assumptions.
// It returns Sat, Unsat, or Unknown when the conflict or wall-clock budget
// is exhausted.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	s.cancelUntil(0)
	if s.propagate() != -1 {
		s.ok = false
		return Unsat
	}
	s.maxLearnts = float64(len(s.clauses))/3 + 1000
	s.lubyIdx = 0
	conflictsAtStart := s.Stats.Conflicts

	for {
		budget := luby(s.lubyIdx) * 100
		s.lubyIdx++
		st := s.search(budget, assumptions)
		if st == Sat {
			s.model = append(s.model[:0], s.vals...)
			s.cancelUntil(0)
			return Sat
		}
		if st == Unsat {
			return Unsat
		}
		if s.MaxConflict > 0 && s.Stats.Conflicts-conflictsAtStart >= s.MaxConflict {
			s.cancelUntil(0)
			return Unknown
		}
		if !s.Deadline.IsZero() && time.Now().After(s.Deadline) {
			s.cancelUntil(0)
			return Unknown
		}
		if s.Ctx != nil && s.Ctx.Err() != nil {
			s.cancelUntil(0)
			return Unknown
		}
		s.Stats.Restarts++
	}
}

func (s *Solver) search(budget int64, assumptions []Lit) Status {
	conflicts := int64(0)
	for {
		confl := s.propagate()
		if confl != -1 {
			conflicts++
			s.Stats.Conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], -1)
			} else {
				cref := s.pushClause(learnt, true)
				s.clauses[cref].lbd = s.computeLBD(learnt)
				s.attachClause(cref)
				s.enqueue(learnt[0], cref)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if float64(s.learnts) > s.maxLearnts {
				s.maxLearnts *= 1.3
				s.reduceDB()
			}
			continue
		}
		if conflicts >= budget {
			s.cancelUntil(0)
			return Unknown
		}
		// Poll external cancellation inside long search episodes too —
		// restart boundaries alone can be hundreds of thousands of
		// conflicts apart late in a run. Every 64 conflicts keeps the
		// mutex-guarded Err read off the propagation fast path.
		if s.Ctx != nil && conflicts&63 == 0 && conflicts > 0 && s.Ctx.Err() != nil {
			s.cancelUntil(0)
			return Unknown
		}
		// Place assumptions first, then decide.
		next := ^Lit(0)
		for int(s.decisionLevel()) < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.valueLit(a) {
			case lTrue:
				s.newDecisionLevel() // already satisfied: dummy level
				continue
			case lFalse:
				return Unsat // conflicts with earlier assumptions/clauses
			}
			next = a
			break
		}
		if next == ^Lit(0) {
			v := s.pickBranchVar()
			if v == -1 {
				return Sat
			}
			next = MkLit(v, s.polarity[v])
			s.Stats.Decisions++
		}
		s.newDecisionLevel()
		s.enqueue(next, -1)
	}
}

func (s *Solver) pickBranchVar() int {
	for {
		v := s.heap.pop(s.activity)
		if v == -1 {
			return -1
		}
		if s.vals[PosLit(v)] == lUndef {
			return v
		}
	}
}
