package engine

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"mighash/internal/fault"
	"mighash/internal/mig"
)

// migText renders a graph in its canonical text form — the bit-identity
// witness these tests compare sibling results with.
func migText(t *testing.T, m *mig.MIG) string {
	t.Helper()
	var sb strings.Builder
	if err := m.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestRunBatchRecoversPanickingPass: a deliberately panicking custom
// pass fails its own job in-band — Result.Err wraps ErrJobPanic and
// carries the panic value — while sibling jobs complete bit-identical
// to a batch that never saw the panic.
func TestRunBatchRecoversPanickingPass(t *testing.T) {
	d := loadDB(t)
	rng := rand.New(rand.NewSource(7))
	jobs := []Job{
		{Name: "ok0", M: randomMIG(rng, 5, 60, 1)},
		{Name: "boom", M: randomMIG(rng, 5, 60, 2)},
		{Name: "ok1", M: randomMIG(rng, 5, 60, 1)},
	}
	// Identity for every graph but the two-output one, which it blows up
	// from deep inside the pipeline.
	landmine := Pass{name: "landmine", run: func(m *mig.MIG, env passEnv) (*mig.MIG, PassStats) {
		if m.NumPOs() == 2 {
			panic("wired to blow")
		}
		return m, PassStats{
			Name:       "landmine",
			SizeBefore: m.Size(), SizeAfter: m.Size(),
			DepthBefore: m.Depth(), DepthAfter: m.Depth(),
		}
	}}
	bf, ok := PassByName("BF")
	if !ok {
		t.Fatal("BF pass missing")
	}
	p := &Pipeline{Name: "chaos", Passes: []Pass{bf, landmine}, DB: d}
	clean := &Pipeline{Name: "clean", Passes: []Pass{bf}, DB: d}

	results, err := RunBatch(context.Background(), p, jobs, BatchOptions{Workers: 3})
	if err != nil {
		t.Fatalf("RunBatch = %v; a panicking job must fail in-band, not the batch", err)
	}
	want, err := RunBatch(context.Background(), clean, jobs, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[1].Err, ErrJobPanic) {
		t.Fatalf("panicking job's Err = %v, want ErrJobPanic", results[1].Err)
	}
	if msg := results[1].Err.Error(); !strings.Contains(msg, "wired to blow") || !strings.Contains(msg, "panicked") {
		t.Fatalf("panic error %q should carry the panic value", msg)
	}
	if results[1].M != nil {
		t.Fatal("panicking job returned a graph")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("sibling job %s failed: %v", results[i].Name, results[i].Err)
		}
		if migText(t, results[i].M) != migText(t, want[i].M) {
			t.Fatalf("sibling job %s is not bit-identical to the panic-free run", results[i].Name)
		}
	}
}

// TestRunBatchJobFailpoint drives the "engine/job" failpoint in both of
// its modes: a panic spec exercises the recovery boundary, a return spec
// fails the job in-band without it; either way the other jobs match the
// fault-free batch exactly.
func TestRunBatchJobFailpoint(t *testing.T) {
	defer fault.Reset()
	d := loadDB(t)
	rng := rand.New(rand.NewSource(8))
	var jobs []Job
	for i := 0; i < 3; i++ {
		jobs = append(jobs, Job{Name: string(rune('a' + i)), M: randomMIG(rng, 5, 80, 1)})
	}
	p, err := NewScript("t", "BF")
	if err != nil {
		t.Fatal(err)
	}
	p.DB = d
	baseline, err := RunBatch(context.Background(), p, jobs, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Workers = 1 runs jobs in order, so skip(1) deterministically blows
	// up exactly the second job.
	if err := fault.Enable("engine/job", "skip(1)*count(1)*panic(injected chaos)"); err != nil {
		t.Fatal(err)
	}
	results, err := RunBatch(context.Background(), p, jobs, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[1].Err, ErrJobPanic) || !strings.Contains(results[1].Err.Error(), "injected chaos") {
		t.Fatalf("injected panic surfaced as %v, want ErrJobPanic with the injected message", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || migText(t, results[i].M) != migText(t, baseline[i].M) {
			t.Fatalf("job %s diverged from the fault-free batch (err %v)", results[i].Name, results[i].Err)
		}
	}

	if err := fault.Enable("engine/job", "count(1)*return(injected outage)"); err != nil {
		t.Fatal(err)
	}
	results, err = RunBatch(context.Background(), p, jobs, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, fault.ErrInjected) || errors.Is(results[0].Err, ErrJobPanic) {
		t.Fatalf("injected error surfaced as %v, want ErrInjected (and not ErrJobPanic)", results[0].Err)
	}
	for _, i := range []int{1, 2} {
		if results[i].Err != nil || migText(t, results[i].M) != migText(t, baseline[i].M) {
			t.Fatalf("job %s diverged from the fault-free batch (err %v)", results[i].Name, results[i].Err)
		}
	}
}
