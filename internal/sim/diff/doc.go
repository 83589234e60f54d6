// Package diff is the differential verification harness: it checks that
// an optimization pass preserved its graph's function by word-parallel
// simulation, cheaply enough to run after every pass of every pipeline in
// ordinary CI rather than on a smoke subset.
//
// A Check is refute-only — simulation can prove two graphs different but
// never identical — so the harness is the first rung of the verification
// ladder, with SAT (mig.Equivalent) as the proof rung for final results.
// What makes refute-only checking trustworthy in practice is volume and
// guidance: every pass of every iteration is swept over thousands of
// deterministic patterns, the pattern pool replays every counterexample
// ever found first, and the harness self-calibrates (Harness.Mutate)
// by verifying it refutes deliberately broken graphs.
//
// A Harness is safe for concurrent use across batch jobs: its counters
// are atomic and each call owns its scratch. Determinism: the pattern
// pools share one fixed seed, so a sweep is bit-identical across runs,
// platforms and worker counts.
package diff
