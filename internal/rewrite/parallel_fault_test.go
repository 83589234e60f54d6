package rewrite

import (
	"math/rand"
	"strings"
	"testing"

	"mighash/internal/db"
	"mighash/internal/fault"
)

// TestWorkerPanicReachesCaller: recover only catches same-goroutine
// panics, so a panic inside an evaluation worker must be re-raised on
// the goroutine that called Run — where the engine's per-job boundary
// can convert it to an error — instead of crashing the process.
func TestWorkerPanicReachesCaller(t *testing.T) {
	defer fault.Reset()
	d := loadDB(t)
	m := randomMIG(rand.New(rand.NewSource(77)), 7, 200, 2)
	if err := fault.Enable("rewrite/ffr-region", "count(1)*panic(chaos in a worker)"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic did not propagate to the caller")
		}
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "evaluation worker panicked") || !strings.Contains(s, "chaos in a worker") {
			t.Fatalf("propagated panic %v should carry the worker's panic value", r)
		}
	}()
	opt := TF
	opt.Workers = 4
	Run(m, d, opt)
}

// TestWorkerPanicLeavesOthersSound: after one injected worker panic, a
// clean retry through the same reused workspace produces exactly the
// graph an untouched run produces — the abandoned half-evaluated scratch
// corrupts nothing that outlives the call.
func TestWorkerPanicLeavesOthersSound(t *testing.T) {
	defer fault.Reset()
	d := loadDB(t)
	m := randomMIG(rand.New(rand.NewSource(78)), 7, 200, 2)
	opt := TF
	opt.Workers = 4
	opt.Workspace = NewWorkspace()
	want, _ := Run(m, d, opt)

	if err := fault.Enable("rewrite/ffr-region", "count(1)*panic(chaos)"); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() { recover() }()
		Run(m, d, opt)
		t.Error("injected worker panic did not surface")
	}()
	fault.Reset()

	got, _ := Run(m, d, opt)
	if got.Size() != want.Size() || got.Depth() != want.Depth() {
		t.Fatalf("retry after a worker panic diverged: size %d depth %d, want size %d depth %d",
			got.Size(), got.Depth(), want.Size(), want.Depth())
	}
}

// TestParallelPassUsesWorkerMemos: a Workers > 1 pass hands every worker
// its own lookup memo, several workers look up through theirs, and the
// pass statistics are the sum of the workers' traffic. A delay at every
// region claim keeps one worker from draining the queue alone.
func TestParallelPassUsesWorkerMemos(t *testing.T) {
	defer fault.Reset()
	d := loadDB(t)
	m := randomMIG(rand.New(rand.NewSource(49)), 14, 500, 5)
	ws := NewWorkspace()
	opt := TF
	opt.Workspace = ws
	opt.Workers = 4
	if err := fault.Enable("rewrite/ffr-region", "delay(1ms)"); err != nil {
		t.Fatal(err)
	}
	got, st := Run(m, d, opt)
	fault.Reset()
	if want, _ := Run(m, d, TF); writeText(t, got) != writeText(t, want) {
		t.Fatal("4 workers produced a different graph than 1")
	}
	if len(ws.eval) < 4 {
		t.Fatalf("%d evaluation states for 4 workers", len(ws.eval))
	}
	memos := map[*db.Cache]bool{}
	busy, hits, misses := 0, 0, 0
	for _, es := range ws.eval {
		memos[es.memo] = true
		if es.misses > 0 {
			busy++
		}
		hits += es.hits
		misses += es.misses
	}
	if len(memos) != len(ws.eval) || memos[nil] {
		t.Fatalf("%d distinct memos for %d workers", len(memos), len(ws.eval))
	}
	if busy < 2 {
		t.Fatalf("only %d worker(s) filled a memo", busy)
	}
	if hits != st.CacheHits || misses != st.CacheMisses {
		t.Fatalf("workers counted %d/%d, pass reports %d/%d", hits, misses, st.CacheHits, st.CacheMisses)
	}
}
