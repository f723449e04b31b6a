package kernel_test

import (
	"testing"

	"emeralds/internal/vtime"
)

// TestRunAllocationFree pins the run loop's steady state: once a 2 s
// warm-up has filled the event pool, the trace ring and every task's
// response histogram, an untraced emsim run of the 30-task set
// allocates nothing per virtual second, under each policy. Charges
// retime the running segment in place, a job completion buckets its
// response without allocating, and a preemption's trace detail is
// precomputed per thread.
func TestRunAllocationFree(t *testing.T) {
	specs := longSpecs()
	for _, p := range runPolicies {
		n := bootLong(t, p, specs)
		n.Run(2 * vtime.Second)
		if allocs := testing.AllocsPerRun(3, func() { n.Run(vtime.Second) }); allocs != 0 {
			t.Errorf("%s: %.0f allocations per virtual second, want 0", p, allocs)
		}
	}
}
