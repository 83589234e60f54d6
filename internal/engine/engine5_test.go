package engine

import (
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"mighash/internal/db"
	"mighash/internal/mig"
)

// synth5Budget keeps the engine tests fast and deterministic: classes
// past the budget resolve as misses, which every property here must
// tolerate anyway.
var synth5Budget = db.OnDemandOptions{MaxGates: 5, MaxConflicts: 2000}

// TestResyn5PresetSoundAndNeverWorse: the resyn5 preset must produce
// equivalent graphs (SAT-checked) that are never larger than resyn's on
// the same inputs.
func TestResyn5PresetSoundAndNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 3; round++ {
		m := randomMIG(rng, 8+rng.Intn(4), 150+rng.Intn(150), 3)
		p4, err := Preset("resyn")
		if err != nil {
			t.Fatal(err)
		}
		_, st4, err := p4.Run(m)
		if err != nil {
			t.Fatal(err)
		}
		p5, err := Preset("resyn5")
		if err != nil {
			t.Fatal(err)
		}
		p5.Exact5 = db.NewOnDemand(synth5Budget)
		got, st5, err := p5.Run(m)
		if err != nil {
			t.Fatal(err)
		}
		if st5.SizeAfter > st4.SizeAfter {
			t.Fatalf("round %d: resyn5 ended at %d gates, resyn at %d", round, st5.SizeAfter, st4.SizeAfter)
		}
		eq, ce, err := mig.Equivalent(m, got, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("round %d: resyn5 changed the function, counterexample %v", round, ce)
		}
	}
}

// TestRunBatch5CacheFileWarmStart: a second batch over the same jobs and
// cache file must re-synthesize nothing and produce identical graphs.
func TestRunBatch5CacheFileWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var jobs []Job
	for i := 0; i < 3; i++ {
		jobs = append(jobs, Job{Name: "j", M: randomMIG(rng, 7+rng.Intn(3), 120+rng.Intn(100), 2)})
	}
	p, err := Preset("size5")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "npn5.cache")

	cold := db.NewOnDemand(synth5Budget)
	coldRes, err := RunBatch(context.Background(), p, jobs, BatchOptions{
		Workers: 2, CacheFile: path, Exact5: cold,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Synths() == 0 {
		t.Skip("no 5-input classes discovered in the random batch") // vanishingly unlikely
	}

	warm := db.NewOnDemand(synth5Budget)
	warmRes, err := RunBatch(context.Background(), p, jobs, BatchOptions{
		Workers: 2, CacheFile: path, Exact5: warm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Synths() != 0 {
		t.Fatalf("warm batch ran %d ladders, want 0 (restored %d classes, %d negative)",
			warm.Synths(), warm.Len(), warm.NegativeLen())
	}
	for i := range coldRes {
		a, b := renderGraph(t, coldRes[i].M), renderGraph(t, warmRes[i].M)
		if a != b {
			t.Fatalf("job %d: warm graph differs from cold", i)
		}
	}
}

func renderGraph(t *testing.T, m *mig.MIG) string {
	t.Helper()
	var b strings.Builder
	if err := m.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
