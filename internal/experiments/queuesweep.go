package experiments

import (
	"fmt"
	"strings"

	"emeralds/internal/analysis"
	"emeralds/internal/costmodel"
	"emeralds/internal/harness"
	"emeralds/internal/sched"
	"emeralds/internal/task"
	"emeralds/internal/workload"
)

// This file tests §5.6's prediction about the general CSD-x framework:
// "as x increases, performance of CSD-x will quickly reach a maximum
// and then start decreasing because of reduced schedulability and
// increased overhead of managing x queues (which increases by 0.55 µs
// per queue). Eventually, as x approaches n, performance of CSD-x will
// degrade to that of RM."
//
// The sweep fixes the workload-size and varies the queue count x. To
// keep the search tractable at every x, the DP prefix of length r is
// split evenly across the x−1 DP queues and only r is searched — the
// same O(n) search CSD-2 uses, applied to every x. (The full per-queue
// search is exponential in x; the even split is how one would deploy a
// many-queue CSD in practice.)

// QueueSweepPoint is the average breakdown utilization of CSD-x.
type QueueSweepPoint struct {
	X         int     `json:"x"`
	Breakdown float64 `json:"breakdown_pct"`
}

// evenSplit distributes r tasks across k queues as evenly as possible,
// front-loading the remainder (DP1 gets the extra task, matching
// §5.5.2's advice that the shortest-period tasks drive the overhead).
func evenSplit(r, k int) []int {
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = r / k
	}
	for i := 0; i < r%k; i++ {
		sizes[i]++
	}
	return sizes
}

// QueueCountSweep measures breakdown utilization for CSD-x, x in xs,
// averaging over `count` random workloads of n tasks. RM (x = 1 in the
// paper's framing) is included as x = 1. The (x, workload) grid is one
// harness job per cell; each job regenerates workload i from
// workload.SeedFor(seed, n, i), so every x sees the identical task
// sets the old shared-batch version used, and the per-x averages sum
// in workload order after the fan-out.
func QueueCountSweep(prof *costmodel.Profile, n int, xs []int, count int, seed int64, par Par) []QueueSweepPoint {
	if prof == nil {
		prof = m68040
	}
	cells := parRun(par, "queue-sweep", len(xs)*count,
		func(j harness.Job) (float64, error) {
			x := xs[j.Index/count]
			specs := workload.Generate(workload.Config{
				N: n, Utilization: 0.5, PeriodDiv: 2,
				Seed: workload.SeedFor(seed, n, j.Index%count),
			})
			if x <= 1 {
				return analysis.BreakdownRM(prof, specs), nil
			}
			rmSorted := analysis.SortRM(specs)
			return analysis.Breakdown(rmSorted, func(s []task.Spec) bool {
				for r := 1; r <= n; r++ {
					part := sched.Partition{DPSizes: evenSplit(r, x-1)}
					if analysis.FeasibleCSD(prof, s, part) {
						return true
					}
				}
				return false
			}), nil
		})
	out := make([]QueueSweepPoint, 0, len(xs))
	for xi, x := range xs {
		var sum float64
		for wi := 0; wi < count; wi++ {
			sum += cells[xi*count+wi]
		}
		out = append(out, QueueSweepPoint{X: x, Breakdown: 100 * sum / float64(count)})
	}
	return out
}

// RenderQueueSweep prints the sweep.
func RenderQueueSweep(n int, pts []QueueSweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5.6 queue-count sweep: CSD-x breakdown utilization, n=%d (x=1 is RM)\n", n)
	fmt.Fprintf(&b, "%6s %12s\n", "x", "breakdown %")
	for _, p := range pts {
		fmt.Fprintf(&b, "%6d %12.1f\n", p.X, p.Breakdown)
	}
	return b.String()
}
