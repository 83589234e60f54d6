package diff

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mighash/internal/mig"
	"mighash/internal/sim"
)

// RandomPatterns is how many pseudo-random patterns a check simulates
// after the structural prefix of the pool's ladder (constants, recorded
// counterexamples, walking one-hot and one-cold; sim.Pool). Per-pass
// checks run at pipeline volume (every pass × every iteration × every
// job), so this is half the SAT prefilter's default budget.
const RandomPatterns = 1024

// Stats is a snapshot of a harness's counters.
type Stats struct {
	// Checks is the number of graph pairs compared.
	Checks int64 `json:"checks"`
	// Patterns is the total number of input patterns simulated (each
	// evaluates both sides of its pair).
	Patterns int64 `json:"patterns"`
	// Failures is how many checks refuted equivalence.
	Failures int64 `json:"failures"`
	// Elapsed is the wall-clock time spent inside checks, summed across
	// concurrent callers (it can exceed real time on a busy batch).
	Elapsed time.Duration `json:"elapsed_ns"`
}

// PatternsPerSecond is the sweep throughput: patterns simulated per
// second of in-check wall clock.
func (s Stats) PatternsPerSecond() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Patterns) / s.Elapsed.Seconds()
}

// Harness runs differential simulation checks and accumulates their
// statistics and counterexamples. One harness is meant to cover a whole
// batch run: pools are shared per input width, so a counterexample found
// verifying one job sharpens every later check of every other job. All
// methods are safe for concurrent use.
type Harness struct {
	mu    sync.Mutex
	pools map[int]*sim.Pool

	checks   atomic.Int64
	patterns atomic.Int64
	failures atomic.Int64
	elapsed  atomic.Int64 // ns
}

// New returns an empty harness.
func New() *Harness {
	return &Harness{pools: make(map[int]*sim.Pool)}
}

// pool returns the shared pattern pool for circuits with n inputs.
func (h *Harness) pool(n int) *sim.Pool {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.pools[n]
	if !ok {
		p = sim.NewPool(n, 0)
		h.pools[n] = p
	}
	return p
}

// Check compares before and after by word-parallel simulation. It
// returns nil when no pattern tells them apart and an error carrying the
// counterexample otherwise; the counterexample is also recorded in the
// width's pool for every later check. Refute-only: a nil error is
// evidence, not proof.
//
// The batch is the width's whole structural prefix plus RandomPatterns,
// rounded up to a multiple of 64, so a wide cone gets its random
// patterns too: from 511 inputs up, the prefix alone fills 1,024
// patterns.
func (h *Harness) Check(before, after *mig.MIG) error {
	start := time.Now()
	pool := h.pool(before.NumPIs())
	eq, ce, st, err := mig.EquivalentOpt(before, after, mig.EquivOptions{
		SimPatterns: 2 + pool.Counterexamples() + 2*pool.NumPIs() + RandomPatterns,
		Pool:        pool,
		NoSAT:       true,
	})
	h.checks.Add(1)
	h.patterns.Add(int64(st.SimPatterns))
	h.elapsed.Add(int64(time.Since(start)))
	if err != nil {
		h.failures.Add(1)
		return err
	}
	if !eq {
		h.failures.Add(1)
		return fmt.Errorf("diff: graphs disagree: %v", ce)
	}
	return nil
}

// PassCheck is Check in the shape of the engine's per-pass verification
// hook (Pipeline.PassCheck): install it to re-check every executed pass
// of every iteration against its input graph. An error aborts that
// pipeline run and names the offending pass.
func (h *Harness) PassCheck(pass string, iteration int, before, after *mig.MIG) error {
	if err := h.Check(before, after); err != nil {
		return fmt.Errorf("pass %s (iteration %d) is not function-preserving: %w", pass, iteration, err)
	}
	return nil
}

// Stats snapshots the harness counters.
func (h *Harness) Stats() Stats {
	return Stats{
		Checks:   h.checks.Load(),
		Patterns: h.patterns.Load(),
		Failures: h.failures.Load(),
		Elapsed:  time.Duration(h.elapsed.Load()),
	}
}

// Mutant returns a copy of m with primary output k%NumPOs XOR-ed with
// primary input k%NumPIs. The mutant provably differs from m on exactly
// the assignments setting that input, making it a ground-truth
// inequivalent specimen for calibrating refutation (no mutation that
// merely perturbs a gate guarantees inequivalence — majority axioms can
// cancel it).
func Mutant(m *mig.MIG, k int) *mig.MIG {
	if m.NumPIs() == 0 || m.NumPOs() == 0 {
		panic("diff: Mutant needs at least one input and one output")
	}
	c := m.Clone()
	j := k % c.NumPOs()
	c.SetOutput(j, c.Xor(c.Output(j), c.Input(k%c.NumPIs())))
	return c
}

// Calibrate checks that the harness refutes n ground-truth-inequivalent
// mutants of m, returning how many it caught. A shortfall means the
// pattern budget is too small for this circuit — the self-test that
// keeps "every pass verified, zero failures" from being vacuous.
func (h *Harness) Calibrate(m *mig.MIG, n int) (refuted int) {
	for k := 0; k < n; k++ {
		if h.Check(m, Mutant(m, k)) != nil {
			refuted++
		}
	}
	return refuted
}
