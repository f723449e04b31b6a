// Package emeralds is a from-scratch reproduction of "EMERALDS: a
// small-memory real-time microkernel" (Zuberi, Pillai & Shin, SOSP '99)
// as a Go library: the CSD combined static/dynamic scheduler, the
// optimized semaphore implementation with hint-based context-switch
// elimination and O(1) place-holder priority inheritance, state-message
// IPC, and the full microkernel substrate they run on — executed on a
// deterministic discrete-event simulator with a virtual-time cost model
// calibrated to the paper's 25 MHz Motorola 68040 measurements.
//
// Start with kernel.NewNode, which builds a system from one sim.Config,
// DESIGN.md for the system inventory, and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure. The
// benchmarks in bench_test.go regenerate each of them:
//
//	go test -bench=. -benchmem .
//
// The runnable examples live under examples/ and the experiment
// drivers under cmd/.
package emeralds
