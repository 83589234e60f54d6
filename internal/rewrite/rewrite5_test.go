package rewrite

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"mighash/internal/db"
)

// variants5 are the K = 5 extensions under test.
var variants5 = []struct {
	name string
	opt  Options
}{
	{"TF5", variant("TF5")},
	{"T5", variant("T5")},
	{"TFD5", variant("TFD5")},
	{"TD5", variant("TD5")},
}

// store5 returns an on-demand store with a small deterministic budget so
// tests stay fast: classes past the budget simply resolve as misses,
// which soundness and determinism must tolerate anyway.
func store5() *db.OnDemand {
	return db.NewOnDemand(db.OnDemandOptions{MaxGates: 5, MaxConflicts: 2000})
}

// TestVariants5PreserveFunction is the K = 5 soundness property: every
// 5-wide variant must return an MIG computing the same functions,
// verified by exhaustive simulation.
func TestVariants5PreserveFunction(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(19))
	s := store5()
	for round := 0; round < 8; round++ {
		pis := 5 + rng.Intn(2)
		m := randomMIG(rng, pis, 30+rng.Intn(60), 1+rng.Intn(3))
		want := m.Simulate()
		for _, v := range variants5 {
			opt := v.opt
			opt.Exact5 = s
			got, st := Run(m, d, opt)
			sim := got.Simulate()
			for i := range want {
				if sim[i] != want[i] {
					t.Fatalf("round %d %s: output %d computes %v, want %v", round, v.name, i, sim[i], want[i])
				}
			}
			if st.SizeAfter > st.SizeBefore {
				t.Errorf("round %d %s: size increased %d→%d", round, v.name, st.SizeBefore, st.SizeAfter)
			}
			if !strings.HasSuffix(st.Variant, "5") {
				t.Errorf("variant name %q lacks the 5 suffix", st.Variant)
			}
		}
	}
}

// TestVariants5NeverWorseThanK4: on the same graph with a shared store,
// the K = 5 pass must end at most as large as its K = 4 counterpart —
// every 4-wide replacement is still available to it.
func TestVariants5NeverWorseThanK4(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(23))
	s := store5()
	for round := 0; round < 6; round++ {
		m := randomMIG(rng, 6+rng.Intn(3), 80+rng.Intn(80), 2)
		base, st4 := Run(m, d, TF)
		opt := variant("TF5")
		opt.Exact5 = s
		got, st5 := Run(m, d, opt)
		if st5.SizeAfter > st4.SizeAfter {
			t.Fatalf("round %d: K=5 ended at %d gates, K=4 at %d", round, got.Size(), base.Size())
		}
	}
}

// TestRewrite5SharedStoreDeterministic: a K = 5 pass over a store
// shared across runs, mirroring production (a learned class serves every
// subsequent run), gives the same graph cold and warm, and a fresh store
// agrees with both: first-contact synthesis is itself deterministic.
func TestRewrite5SharedStoreDeterministic(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 3; round++ {
		m := randomMIG(rng, 8, 250+rng.Intn(150), 3)
		shared := store5()
		var want string
		for run := 0; run < 2; run++ {
			opt := variant("TF5")
			opt.Exact5 = shared
			got, _ := Run(m, d, opt)
			if run == 0 {
				want = writeText(t, got)
			} else if writeText(t, got) != want {
				t.Fatalf("round %d: the warm store produced a different graph", round)
			}
		}
		opt := variant("TF5")
		opt.Exact5 = store5()
		got, _ := Run(m, d, opt)
		if writeText(t, got) != want {
			t.Fatalf("round %d: fresh store diverged from warm store", round)
		}
	}
}

// TestRewrite5CancelledContextStaysSound: a cancelled context must not
// break soundness — un-learned classes resolve as misses and the pass
// still returns a correct graph.
func TestRewrite5CancelledContextStaysSound(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(37))
	m := randomMIG(rng, 6, 120, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := variant("TF5")
	opt.Exact5 = store5()
	opt.Ctx = ctx
	got, _ := Run(m, d, opt)
	want, sim := m.Simulate(), got.Simulate()
	for i := range want {
		if sim[i] != want[i] {
			t.Fatalf("output %d computes %v, want %v", i, sim[i], want[i])
		}
	}
}
