package experiments

import (
	"emeralds/internal/analysis"
	"emeralds/internal/harness"
	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
	"emeralds/internal/workload"
)

// Simulation-based breakdown utilization: the same §5.7 protocol as the
// analytic engine, but feasibility of each probed scale is decided by
// actually running the workload on the kernel and watching for misses.
// It validates the analytic curves end-to-end — the analysis charges
// only the §5.1 scheduler costs (as the paper's does), while the
// simulator additionally pays context switches, timer interrupts and
// system calls, so the simulated breakdown sits at or slightly below
// the analytic one.

// SimulateMisses boots the workload on a node built from cfg — the
// policy by name, plus Queues or DPSizes for CSD — and returns the
// deadline-miss count over the horizon.
func SimulateMisses(cfg sim.Config, specs []task.Spec, horizon vtime.Duration) uint64 {
	k, err := kernel.Boot(cfg, func(n *kernel.Node) error {
		for _, s := range specs {
			n.AddTask(s)
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	k.Run(horizon)
	return k.Stats().Misses
}

// SimBreakdown bisects the execution-time scale like
// analysis.Breakdown, with simulation under the named policy (a
// sim.Policy* name) deciding feasibility. The horizon should cover
// several hyperperiods of the workload; a finite horizon makes the
// result an upper bound (a miss may hide beyond it), which is why
// validation pairs it with the conservative analytic result.
func SimBreakdown(specs []task.Spec, policy string, horizon vtime.Duration) float64 {
	cfg := sim.Config{Policy: policy, Profile: m68040, StandardSem: true}
	rmSorted := analysis.SortRM(specs)
	return analysis.Breakdown(rmSorted, func(s []task.Spec) bool {
		return SimulateMisses(cfg, s, horizon) == 0
	})
}

// SimVsAnalytic compares the two breakdown estimates for one workload.
type SimVsAnalytic struct {
	Policy    string  `json:"policy"`
	Analytic  float64 `json:"analytic"`
	Simulated float64 `json:"simulated"`
}

// CompareBreakdowns runs both engines for EDF and RM on the workload.
func CompareBreakdowns(specs []task.Spec, horizon vtime.Duration) []SimVsAnalytic {
	return []SimVsAnalytic{
		{"EDF", analysis.BreakdownEDF(m68040, specs), SimBreakdown(specs, sim.PolicyEDF, horizon)},
		{"RM", analysis.BreakdownRM(m68040, specs), SimBreakdown(specs, sim.PolicyRM, horizon)},
	}
}

// CompareSweepPoint is one task count's simulation cross-check.
type CompareSweepPoint struct {
	N    int             `json:"n"`
	Cmps []SimVsAnalytic `json:"checks"`
}

// CompareSweep cross-checks the analytic breakdown against the
// simulated one at every task count in ns, one harness job per count.
// The workload probed at n is workload 0 of the figure sweep at the
// same (seed, div, n) — see workload.SeedFor — so the cross-check
// exercises exactly a task set the analytic series averaged over. Both
// engines use the one 68040 profile the figure sweep uses.
func CompareSweep(ns []int, div int, seed int64, horizon vtime.Duration, par Par) []CompareSweepPoint {
	return parRun(par, "sim-crosscheck", len(ns),
		func(j harness.Job) (CompareSweepPoint, error) {
			n := ns[j.Index]
			specs := workload.Generate(workload.Config{
				N: n, PeriodDiv: div, Utilization: 0.5,
				Seed: workload.SeedFor(seed, n, 0),
			})
			return CompareSweepPoint{N: n, Cmps: CompareBreakdowns(specs, horizon)}, nil
		})
}
