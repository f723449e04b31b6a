package analysis_test

import (
	"math"
	"testing"

	"emeralds/internal/analysis"
	"emeralds/internal/costmodel"
	"emeralds/internal/experiments"
	"emeralds/internal/sched"
	"emeralds/internal/task"
	"emeralds/internal/workload"
)

// This file holds the breakdown search as it stood before the search
// kept state across probes: every probe runs a fresh candidate sweep,
// trying the last feasible partition first. It is the reference the
// test below holds BreakdownCSD to: both must return bit-identical
// breakdowns.

// refFindPartition is the per-probe sweep: `first` (the last known-good
// partition) before every candidate in Candidates order. It counts the
// rejections at an iteration cap it sees in *capped.
func refFindPartition(p *costmodel.Profile, rmSorted []task.Spec, numQueues int, first *sched.Partition, capped *int) (sched.Partition, bool) {
	feasible := func(part sched.Partition) bool {
		v := analysis.CSDVerdict(p, rmSorted, part)
		if v == analysis.VerdictCapped {
			*capped++
		}
		return v == analysis.VerdictFeasible
	}
	if first != nil && first.NumQueues() == numQueues &&
		first.Validate(len(rmSorted)) == nil && feasible(*first) {
		return *first, true
	}
	for _, cand := range analysis.Candidates(numQueues, len(rmSorted)) {
		if feasible(cand) {
			return cand, true
		}
	}
	return sched.Partition{}, false
}

// refBreakdownCSD bisects with refFindPartition at every probe.
func refBreakdownCSD(p *costmodel.Profile, specs []task.Spec, numQueues int, capped *int) float64 {
	rmSorted := analysis.SortRM(specs)
	var lastGood *sched.Partition
	return analysis.Breakdown(rmSorted, func(s []task.Spec) bool {
		part, ok := refFindPartition(p, s, numQueues, lastGood, capped)
		if ok {
			lastGood = &part
		}
		return ok
	})
}

// TestBreakdownCSDMatchesReference generates Figure 3–5 workloads, as
// experiments.BreakdownFigure does, and requires the pruned search to
// return the reference's breakdown bit for bit under CSD-2, -3 and -4.
// The sets must include probes where the demand test's busy period hits
// its cap: that is the rejection the pruning must not trust.
func TestBreakdownCSDMatchesReference(t *testing.T) {
	prof := costmodel.M68040()
	seeds := []int64{1, 7919}
	if testing.Short() {
		seeds = seeds[:1]
	}
	capped := 0
	for _, seed := range seeds {
		for div := 1; div <= 3; div++ {
			for _, n := range experiments.DefaultNs {
				specs := workload.Generate(workload.Config{
					N:           n,
					PeriodDiv:   div,
					Utilization: 0.5,
					Seed:        workload.SeedFor(seed, n, 0),
				})
				for q := 2; q <= 4; q++ {
					got := analysis.BreakdownCSD(prof, specs, q)
					want := refBreakdownCSD(prof, specs, q, &capped)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("seed %d div %d n=%d CSD-%d: breakdown %v, reference %v",
							seed, div, n, q, got, want)
					}
				}
			}
		}
	}
	if capped == 0 {
		t.Error("no probe hit an iteration cap: the sets miss the rejection that must not prune")
	}
}
