package sat

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// searchRun is the observable outcome of one Solve call: the status, every
// Stats counter after the call (they are cumulative over the solver's
// life) and a hash of the model when the call returned Sat.
type searchRun struct {
	St           Status
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learnt       int64
	Model        uint64
}

// String prints r as a Go literal of the want tables.
func (r searchRun) String() string {
	st := map[Status]string{Unknown: "Unknown", Sat: "Sat", Unsat: "Unsat"}[r.St]
	return fmt.Sprintf("{%s, %d, %d, %d, %d, %d, %#x}",
		st, r.Conflicts, r.Decisions, r.Propagations, r.Restarts, r.Learnt, r.Model)
}

func observe(s *Solver, st Status) searchRun {
	r := searchRun{St: st, Conflicts: s.Stats.Conflicts, Decisions: s.Stats.Decisions,
		Propagations: s.Stats.Propagations, Restarts: s.Stats.Restarts, Learnt: s.Stats.Learnt}
	if st == Sat {
		h := fnv.New64a()
		for v := 0; v < s.NumVars(); v++ {
			if s.Value(v) {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		r.Model = h.Sum64()
	}
	return r
}

// random3SAT grows s to n variables and adds m clauses over three
// distinct variables drawn from rng.
func random3SAT(s *Solver, rng *rand.Rand, n, m int) {
	for s.NumVars() < n {
		s.NewVar()
	}
	for i := 0; i < m; i++ {
		a := rng.Intn(n)
		b := rng.Intn(n)
		for b == a {
			b = rng.Intn(n)
		}
		c := rng.Intn(n)
		for c == a || c == b {
			c = rng.Intn(n)
		}
		s.AddClause(MkLit(a, rng.Intn(2) == 1), MkLit(b, rng.Intn(2) == 1), MkLit(c, rng.Intn(2) == 1))
	}
}

// searchPins are the search-identity pins: each case builds a formula,
// runs Solve one or more times and reports what every call observed. The
// wanted values were recorded with the solver before its bookkeeping was
// reworked; the rework may change how fast the search runs but not which
// decisions, conflicts and learnt clauses it makes, so every counter must
// repeat exactly. A mismatch means the search itself moved, which would
// also move the learned 5-input database.
var searchPins = []struct {
	name string
	run  func() []searchRun
	want []searchRun
}{
	{"random3sat-n150-s1", func() []searchRun {
		s := New()
		random3SAT(s, rand.New(rand.NewSource(1)), 150, 639)
		return []searchRun{observe(s, s.Solve())}
	}, []searchRun{
		{Unsat, 2892, 3480, 93412, 14, 2882, 0x0},
	}},
	{"random3sat-n200-s2", func() []searchRun {
		s := New()
		random3SAT(s, rand.New(rand.NewSource(2)), 200, 852)
		return []searchRun{observe(s, s.Solve())}
	}, []searchRun{
		{Unsat, 9062, 10942, 334221, 37, 9052, 0x0},
	}},
	{"random3sat-n200-s3", func() []searchRun {
		s := New()
		random3SAT(s, rand.New(rand.NewSource(3)), 200, 852)
		return []searchRun{observe(s, s.Solve())}
	}, []searchRun{
		{Sat, 18431, 22134, 704032, 62, 18429, 0x6db2d6cfb3d168a5},
	}},
	{"random3sat-n175-s4", func() []searchRun {
		s := New()
		random3SAT(s, rand.New(rand.NewSource(4)), 175, 745)
		return []searchRun{observe(s, s.Solve())}
	}, []searchRun{
		{Unsat, 7434, 8947, 265280, 30, 7420, 0x0},
	}},
	{"pigeonhole-7-6", func() []searchRun {
		s := New()
		pigeonhole(s, 7, 6)
		return []searchRun{observe(s, s.Solve())}
	}, []searchRun{
		{Unsat, 810, 949, 10600, 6, 807, 0x0},
	}},
	{"pigeonhole-8-7", func() []searchRun {
		s := New()
		pigeonhole(s, 8, 7)
		return []searchRun{observe(s, s.Solve())}
	}, []searchRun{
		{Unsat, 4103, 5002, 54034, 21, 4100, 0x0},
	}},
	{"max-conflict", func() []searchRun {
		// Stopped by the budget, then resumed on the same solver with a
		// larger one: the second call starts from the learnt clauses and
		// activities the first left behind.
		s := New()
		pigeonhole(s, 9, 8)
		s.MaxConflict = 2500
		first := observe(s, s.Solve())
		s.MaxConflict = 3000
		return []searchRun{first, observe(s, s.Solve())}
	}, []searchRun{
		{Unknown, 3213, 4089, 43082, 14, 3213, 0x0},
		{Unknown, 6428, 7994, 85182, 28, 6428, 0x0},
	}},
	{"assumptions", func() []searchRun {
		s := New()
		rng := rand.New(rand.NewSource(5))
		random3SAT(s, rng, 150, 610)
		var out []searchRun
		for i := 0; i < 8; i++ {
			as := make([]Lit, 6+i)
			for j := range as {
				as[j] = MkLit(rng.Intn(150), rng.Intn(2) == 1)
			}
			out = append(out, observe(s, s.Solve(as...)))
		}
		return append(out, observe(s, s.Solve()))
	}, []searchRun{
		{Unsat, 179, 207, 5910, 1, 179, 0x0},
		{Unsat, 276, 312, 9005, 1, 276, 0x0},
		{Unsat, 286, 322, 9316, 1, 286, 0x0},
		{Sat, 307, 373, 10057, 1, 307, 0x87bd09b84702477b},
		{Unsat, 363, 448, 11792, 1, 363, 0x0},
		{Unsat, 438, 544, 13739, 1, 438, 0x0},
		{Unsat, 445, 551, 13970, 1, 445, 0x0},
		{Unsat, 445, 551, 13984, 1, 445, 0x0},
		{Sat, 539, 692, 17173, 1, 539, 0xe6ac6e1ac3de60cd},
	}},
	{"incremental", func() []searchRun {
		// Clauses arrive in batches between Solve calls, as a miter's do
		// when one solver checks several outputs: every call inherits the
		// learnt clauses, activities and saved phases of the ones before.
		s := New()
		rng := rand.New(rand.NewSource(6))
		var out []searchRun
		for batch := 0; batch < 8; batch++ {
			random3SAT(s, rng, 150, 90)
			out = append(out, observe(s, s.Solve()))
		}
		return out
	}, []searchRun{
		{Sat, 0, 128, 150, 0, 0, 0xc6cac378f8355da},
		{Sat, 0, 235, 300, 0, 0, 0x925d7aa1a8bedeef},
		{Sat, 1, 322, 470, 0, 1, 0xa20e12bba85dcf35},
		{Sat, 3, 386, 647, 0, 3, 0xee12655fe54ec9fa},
		{Sat, 5, 439, 862, 0, 5, 0xeec9917415ac8d1},
		{Sat, 116, 618, 4650, 1, 116, 0x40c20e56660536c1},
		{Unsat, 3643, 4841, 115215, 18, 3637, 0x0},
		{Unsat, 3643, 4841, 115215, 18, 3637, 0x0},
	}},
}

func TestSearchIdentityPins(t *testing.T) {
	for _, pc := range searchPins {
		if got := pc.run(); !slices.Equal(got, pc.want) {
			t.Errorf("%s: search moved\n got %v\nwant %v", pc.name, got, pc.want)
		}
	}
}
