// Package sim is the word-parallel simulation engine: it evaluates a
// whole majority-inverter netlist over 64 input patterns per uint64 word,
// and over multi-word batches for thousands of patterns per sweep. One
// majority gate costs four word operations (a&b | c&(a|b)) and one
// complemented edge costs one XOR with a precomputed mask, so a batch of
// 64·W patterns runs in roughly the time a scalar evaluator spends on a
// single pattern — the integer-factor speedup behind the verification
// ladder (simulate first, prove with SAT only what simulation cannot
// refute).
//
// The package is deliberately free of any dependency on internal/mig: it
// operates on a flattened Circuit (same literal encoding, node ID shifted
// left with a complement bit) that mig.MIG.SimCircuit compiles in one
// pass. That keeps the import direction mig → sim, so the equivalence
// checker in internal/mig can call the simulator without a cycle.
//
// Concurrency and determinism contract: a Circuit is immutable after
// construction and safe for concurrent use; a Workspace is the reusable
// scratch state of one goroutine (all simulation buffers grow to the
// largest circuit seen and are reused — steady-state sweeps allocate
// nothing) and must not be shared. Pattern generation (Pool) is
// deterministic in its seed: the same seed, input count and recorded
// counterexamples produce bit-identical pattern words on every run and
// platform, which is what makes simulation-based CI checks reproducible.
// A Pool is safe for concurrent use; recorded counterexamples
// (counterexample-guided refinement) take effect for every Fill that
// follows the Add.
//
// Cost of a check: Fill stamps the structural prefix of the ladder
// (constants, counterexamples, walking one-hot and one-cold) one input
// row at a time with word masks, O(NumPIs·w) word writes, and generates
// random words only past that prefix. On a 512-input cone at 1,024
// patterns the prefix is the whole batch, and one fill takes about 30 µs
// instead of the 2.3 ms that one closure call per (pattern, input) cost
// (BenchmarkPoolFill, 2 vCPUs). The diff harness sizes its batch as the
// prefix plus 1,024 random patterns; its check of the 1,536-gate
// prepared Max cone against itself (two compiles, one fill, two sweeps
// of 2,112 patterns; BenchmarkHarnessCheck) takes about 0.29 ms and
// allocates nothing: mig's refutation takes its Workspace, compiled
// circuits and output batches from a reuse pool.
package sim
