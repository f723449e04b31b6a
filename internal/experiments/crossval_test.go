package experiments

import (
	"math/rand"
	"testing"

	"emeralds/internal/analysis"
	"emeralds/internal/costmodel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
	"emeralds/internal/workload"
)

// Cross-validation of the schedulability analyses against the
// simulator (DESIGN.md §6): any workload the analysis accepts must run
// without deadline misses. Periods are drawn from a harmonic-ish pool
// so a few hyperperiods fit in a short simulation.

var periodPool = []vtime.Duration{
	4 * vtime.Millisecond, 5 * vtime.Millisecond, 8 * vtime.Millisecond,
	10 * vtime.Millisecond, 20 * vtime.Millisecond, 40 * vtime.Millisecond,
}

func randomHarmonicSet(rng *rand.Rand, n int, u float64) []task.Spec {
	specs := make([]task.Spec, n)
	weights := make([]float64, n)
	var sum float64
	for i := range specs {
		specs[i].Period = periodPool[rng.Intn(len(periodPool))]
		weights[i] = 0.2 + rng.Float64()
		sum += weights[i]
	}
	for i := range specs {
		c := vtime.Scale(specs[i].Period, u*weights[i]/sum)
		if c < vtime.Micros(20) {
			c = vtime.Micros(20)
		}
		specs[i].WCET = c
	}
	return specs
}

// nodeCfg is the node a cross-validation run boots: the named policy
// with the standard semaphore scheme, as SimBreakdown builds it.
func nodeCfg(prof *costmodel.Profile, policy string) sim.Config {
	return sim.Config{Policy: policy, Profile: prof, StandardSem: true}
}

// TestAnalysisSoundIdeal: with zero overhead the analyses are exact
// bounds; accepted sets must simulate cleanly.
func TestAnalysisSoundIdeal(t *testing.T) {
	zero := costmodel.Zero()
	rng := rand.New(rand.NewSource(1234))
	horizon := 400 * vtime.Millisecond // 10 hyperperiods of the pool

	accepted := 0
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(8)
		u := 0.5 + rng.Float64()*0.5 // up to U = 1
		specs := randomHarmonicSet(rng, n, u)
		rmSorted := analysis.SortRM(specs)

		if analysis.FeasibleEDF(zero, specs) {
			accepted++
			if m := SimulateMisses(nodeCfg(zero, sim.PolicyEDF), specs, horizon); m != 0 {
				t.Errorf("trial %d: EDF accepted but missed %d (n=%d U=%.3f)", trial, m, n, u)
			}
		}
		if analysis.FeasibleRM(zero, specs) {
			if m := SimulateMisses(nodeCfg(zero, sim.PolicyRM), specs, horizon); m != 0 {
				t.Errorf("trial %d: RM accepted but missed %d (n=%d U=%.3f)", trial, m, n, u)
			}
		}
		for _, queues := range []int{2, 3} {
			part, ok := analysis.FindPartition(zero, rmSorted, queues)
			if !ok {
				continue
			}
			cfg := nodeCfg(zero, sim.PolicyCSD)
			cfg.DPSizes = part.DPSizes
			if m := SimulateMisses(cfg, rmSorted, horizon); m != 0 {
				t.Errorf("trial %d: CSD-%d%v accepted but missed %d (n=%d U=%.3f)",
					trial, queues, part.DPSizes, m, n, u)
			}
		}
	}
	if accepted < 20 {
		t.Errorf("only %d/60 trials EDF-accepted; generator drifted", accepted)
	}
}

// TestAnalysisSoundWithOverhead validates the calibrated profile: the
// analysis charges only the §5.1 scheduler costs (as the paper's does),
// while the simulator additionally pays context switches, timer
// interrupts and system-call entries. A 10% derating of the analysis's
// breakdown scale must absorb that gap.
func TestAnalysisSoundWithOverhead(t *testing.T) {
	prof := costmodel.M68040()
	rng := rand.New(rand.NewSource(99))
	horizon := 400 * vtime.Millisecond

	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(8)
		specs := randomHarmonicSet(rng, n, 0.5)
		bu := analysis.BreakdownEDF(prof, specs)
		if bu <= 0 {
			continue
		}
		base := task.TotalUtilization(specs)
		scaled := task.Scale(specs, 0.9*bu/base)
		if m := SimulateMisses(nodeCfg(prof, sim.PolicyEDF), scaled, horizon); m != 0 {
			t.Errorf("trial %d: EDF at 0.9×breakdown missed %d (n=%d bu=%.3f)", trial, m, n, bu)
		}
	}
}

// TestAnalysisTightIdeal: the analyses must not be uselessly
// conservative — sets just above the EDF bound must be rejected AND
// miss in simulation.
func TestAnalysisTightIdeal(t *testing.T) {
	zero := costmodel.Zero()
	specs := []task.Spec{
		{Period: 10 * vtime.Millisecond, WCET: 6 * vtime.Millisecond},
		{Period: 20 * vtime.Millisecond, WCET: 9 * vtime.Millisecond}, // U = 1.05
	}
	if analysis.FeasibleEDF(zero, specs) {
		t.Error("U>1 accepted")
	}
	if m := SimulateMisses(nodeCfg(zero, sim.PolicyEDF), specs, 200*vtime.Millisecond); m == 0 {
		t.Error("overloaded set simulated cleanly?!")
	}
}

// TestSimBreakdownTracksAnalytic: on harmonic sets the two breakdown
// engines must land close together — the simulated value at or slightly
// below the analytic (it additionally pays switch/timer/syscall costs),
// never far away in either direction.
func TestSimBreakdownTracksAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("bisecting simulations is slow")
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 4; trial++ {
		specs := randomHarmonicSet(rng, 5+rng.Intn(4), 0.5)
		for _, cmp := range CompareBreakdowns(specs, 400*vtime.Millisecond) {
			if cmp.Simulated > cmp.Analytic+0.02 {
				t.Errorf("trial %d %s: simulated %.3f above analytic %.3f",
					trial, cmp.Policy, cmp.Simulated, cmp.Analytic)
			}
			if cmp.Simulated < cmp.Analytic-0.10 {
				t.Errorf("trial %d %s: simulated %.3f far below analytic %.3f",
					trial, cmp.Policy, cmp.Simulated, cmp.Analytic)
			}
		}
	}
}

// TestBreakdownOrderingScaleInvariant: the paper's relative claims
// (CSD-3 beats EDF and RM at large n) must hold on the slower 68332
// profile too — the calibration's absolute level must not be what
// produces the orderings. Each profile averages the workloads
// BreakdownFigure draws at n = 40 with periods ÷2.
func TestBreakdownOrderingScaleInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("breakdown sweep is slow")
	}
	const n, workloads = 40, 10
	for _, prof := range []*costmodel.Profile{costmodel.M68040(), costmodel.M68332()} {
		var csd, edf, rm float64
		for i := 0; i < workloads; i++ {
			specs := workload.Generate(workload.Config{
				N: n, PeriodDiv: 2, Utilization: 0.5, Seed: workload.SeedFor(3, n, i),
			})
			csd += breakdownFor(prof, "CSD-3", specs)
			edf += breakdownFor(prof, "EDF", specs)
			rm += breakdownFor(prof, "RM", specs)
		}
		if csd < edf || csd < rm {
			t.Errorf("%s: CSD-3 %.1f not above EDF %.1f / RM %.1f at n=%d",
				prof.Name, 100*csd/workloads, 100*edf/workloads, 100*rm/workloads, n)
		}
	}
}
