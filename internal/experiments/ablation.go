package experiments

import (
	"fmt"
	"strings"

	"emeralds/internal/harness"
	"emeralds/internal/kernel"
	"emeralds/internal/metrics"
	"emeralds/internal/sched"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// Ablation studies for the design choices DESIGN.md calls out: which
// half of the §6 semaphore optimization buys what, and what the §5.3
// per-queue ready counters are worth.

// SemAblationPoint decomposes the Figure 11/12 saving at one queue
// length into the contribution of each mechanism.
type SemAblationPoint struct {
	QueueLen        int            `json:"queue_len"`
	Standard        vtime.Duration `json:"standard_us"`         // §6.1 baseline
	HintOnly        vtime.Duration `json:"hint_only_us"`        // context-switch elimination only
	PlaceholderOnly vtime.Duration `json:"placeholder_only_us"` // O(1) PI only
	Full            vtime.Duration `json:"full_us"`             // the complete §6.2 scheme
}

// semAblationBuilds are the four builds the ablation decomposes the
// saving over.
var semAblationBuilds = []semBuild{
	{name: "standard"},
	{name: "hint-only", optimized: true, disablePlaceholder: true},
	{name: "placeholder-only", optimized: true, disableHints: true},
	{name: "full", optimized: true},
}

// SemAblationDiag measures the four builds on the Figure 6 scenario,
// one harness job per queue length. It also returns the merged
// diagnostics block: counters summed over all four builds and T2's
// blocking-time histograms keyed by kind and build ("dp/hint-only/T2"),
// folded in job order so the result is worker-count independent.
func SemAblationDiag(kind SemQueueKind, lens []int, par Par) ([]SemAblationPoint, *metrics.Diagnostics) {
	overheads, d := semBuildsDiag("sem-ablation-"+string(kind), kind, lens, semAblationBuilds, par)
	pts := make([]SemAblationPoint, len(lens))
	for i, o := range overheads {
		pts[i] = SemAblationPoint{
			QueueLen:        lens[i],
			Standard:        o[0],
			HintOnly:        o[1],
			PlaceholderOnly: o[2],
			Full:            o[3],
		}
	}
	return pts, d
}

// RenderSemAblation prints the decomposition.
func RenderSemAblation(kind SemQueueKind, pts []SemAblationPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Semaphore-scheme ablation, %s queue (acquire/release overhead)\n", strings.ToUpper(string(kind)))
	fmt.Fprintf(&b, "%10s %12s %12s %14s %12s\n", "queue len", "standard", "hint-only", "placeholder", "full §6.2")
	for _, p := range pts {
		fmt.Fprintf(&b, "%10d %12v %12v %14v %12v\n",
			p.QueueLen, p.Standard, p.HintOnly, p.PlaceholderOnly, p.Full)
	}
	return b.String()
}

// CSDCounterAblation measures the §5.3 ready counters: total scheduler
// selection cost over a run of a CSD-3 system in which the DP queues
// are frequently empty (long-period DP tasks), with and without the
// counters. Returns (withCounters, withoutCounters) total overhead.
// The two builds run as a two-job harness sweep.
func CSDCounterAblation(par Par) (vtime.Duration, vtime.Duration) {
	run := func(disable bool) vtime.Duration {
		pol := sched.NewCSD(m68040, sched.Partition{DPSizes: []int{4, 4}})
		if disable {
			pol.DisableReadyCounters()
		}
		k := kernel.NewNode(sim.Config{Profile: m68040, StandardSem: true})
		k.OverrideScheduler(pol)
		// DP tasks: short jobs, so their queues sit empty most of the
		// time; FP tasks do the bulk of the running — the regime the
		// counters are for.
		for i := 0; i < 8; i++ {
			k.AddTask(task.Spec{
				Name:   fmt.Sprintf("dp%d", i),
				Period: vtime.Duration(5+i) * vtime.Millisecond,
				WCET:   50 * vtime.Microsecond,
			})
		}
		for i := 0; i < 6; i++ {
			k.AddTask(task.Spec{
				Name:   fmt.Sprintf("fp%d", i),
				Period: vtime.Duration(40+10*i) * vtime.Millisecond,
				WCET:   4 * vtime.Millisecond,
			})
		}
		if err := k.Boot(); err != nil {
			panic(err)
		}
		k.Run(2 * vtime.Second)
		return k.Stats().SchedCharge
	}
	both := parRun(par, "csd-counters", 2,
		func(j harness.Job) (vtime.Duration, error) {
			return run(j.Index == 1), nil
		})
	return both[0], both[1]
}
