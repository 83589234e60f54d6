package exact

import (
	"bytes"
	"context"
	"hash/fnv"
	"testing"

	"mighash/internal/tt"
)

// ladder5Options are the 5-input store's defaults (db.OnDemandOptions):
// a ladder capped at 7 gates with 10,000 conflicts per step.
var ladder5Options = Options{MaxGates: 7, MaxConflicts: 10_000}

// ladder5Pins are the 38 NPN class representatives an empty 5-input store
// learns in one cold resyn-x round over Adder, Divisor, Max, Multiplier,
// Sine and Square at one worker, in the order the round meets them, with
// what each ladder spent and the hash of the WriteText form of the MIG it
// learned (0 for the two classes whose budget blew). The learned 5-input
// database is a function of exactly these numbers: a solver change that
// moves one conflict can move a learned MIG and with it every resyn5 and
// resyn-x result, so the pins were recorded before the solver's
// bookkeeping was reworked and must repeat exactly.
var ladder5Pins = []struct {
	class     uint32
	steps     int
	conflicts int64
	gates     int
	text      uint64
}{
	{0x11171777, 3, 121, 2, 0xa6721963d15686ac},
	{0x01151515, 4, 1208, 3, 0xf503d93bfc6d09c3},
	{0x00171717, 4, 504, 3, 0xef48d0f1e7b8903a},
	{0x11151555, 4, 263, 3, 0x45b651236ea1b371},
	{0x11111115, 5, 2506, 4, 0x3055c25020cffea5},
	{0x01111115, 4, 572, 3, 0xeaad0f90150a264d},
	{0x00010101, 5, 1904, 4, 0x7f4b297422751e34},
	{0x00010111, 4, 610, 3, 0x006bc7c6cf0d99ef},
	{0x00000001, 5, 739, 4, 0xfa0d9adaa3decd4c},
	{0x00151515, 5, 1627, 4, 0xa8e1c868867f4214},
	{0x10151515, 5, 3258, 4, 0xc90de42ed5af1975},
	{0x033f5555, 5, 3070, 4, 0xbf0b70b94929c0bd},
	{0x13375555, 5, 3129, 4, 0x2903fd67a5a14e1f},
	{0x1111111f, 5, 4017, 4, 0x2c5e06ee3d599cf7},
	{0x01131557, 4, 1172, 3, 0xe59138a92149025b},
	{0x11171717, 4, 671, 3, 0x1ceda4bf7ae2f39b},
	{0x00051117, 4, 1124, 3, 0xbb122004c1b605d0},
	{0x01010115, 4, 956, 3, 0x557b66355ae97e30},
	{0x11111117, 4, 1383, 3, 0x9489de2a8a14a2e2},
	{0x00070111, 4, 846, 3, 0x30e52f861e91d83f},
	{0x11151517, 4, 1367, 3, 0x98e0c605f842b03e},
	{0x15555555, 5, 1754, 4, 0xc5185ee0b98773e5},
	{0x15555557, 4, 266, 3, 0xeabe47f76e8cce5e},
	{0x01575757, 4, 489, 3, 0x930bd4ec4fadd637},
	{0x15151557, 4, 466, 3, 0x1a6051d0c3667743},
	{0x11175555, 5, 3828, 4, 0xd727238a1fa64e38},
	{0x17717117, 5, 11435, -1, 0},
	{0x33353555, 5, 3398, 4, 0xdb9f3d2a0e79c994},
	{0x17171755, 5, 4386, 4, 0x8fa3d174c07cbfd4},
	{0x01110115, 5, 2614, 4, 0xae652c2bdc309daf},
	{0x17555517, 4, 813, 3, 0x907503700350ced9},
	{0x01571515, 4, 374, 3, 0xc8ca215e81f718a7},
	{0x1515153f, 5, 4630, 4, 0x995fb3633ddebff6},
	{0x15171757, 4, 753, 3, 0xd719ebffbaa41b05},
	{0x0357153f, 4, 196, 3, 0xaa7642b145f8e8eb},
	{0x0355553f, 5, 2810, 4, 0x27ade49190a7a8a3},
	{0x11771717, 5, 5785, 4, 0xd9fc00b337cfa070},
	{0x01353510, 6, 14064, -1, 0},
}

// ladder5 runs the store's ladder for one class and returns its stats and
// the hash of the learned MIG's WriteText form (0 when the ladder failed).
func ladder5(tb testing.TB, class uint32) (LadderStats, uint64) {
	m, ls, err := MinimumStats(context.Background(), tt.New(5, uint64(class)), ladder5Options)
	if err != nil {
		return ls, 0
	}
	var b bytes.Buffer
	if err := m.WriteText(&b); err != nil {
		tb.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b.Bytes())
	return ls, h.Sum64()
}

func TestLadder5Pins(t *testing.T) {
	var conflicts int64
	steps, learned := 0, 0
	for _, p := range ladder5Pins {
		ls, text := ladder5(t, p.class)
		conflicts += ls.Conflicts
		steps += ls.Steps
		if ls.Gates >= 0 {
			learned++
		}
		if ls.Steps != p.steps || ls.Conflicts != p.conflicts || ls.Gates != p.gates || text != p.text {
			t.Errorf("class %08x: got {%#08x, %d, %d, %d, %#x}, want {%#08x, %d, %d, %d, %#x}", p.class,
				p.class, ls.Steps, ls.Conflicts, ls.Gates, text,
				p.class, p.steps, p.conflicts, p.gates, p.text)
		}
	}
	if conflicts != 89_108 || steps != 170 || learned != 36 {
		t.Errorf("totals: %d conflicts, %d steps, %d learned; want 89108, 170, 36", conflicts, steps, learned)
	}
}

// BenchmarkLadder5 climbs all 38 pinned ladders once per iteration (so
// ns/op is per round): the exact-synthesis work of one cold resyn-x round.
func BenchmarkLadder5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range ladder5Pins {
			ladder5(b, p.class)
		}
	}
}
