package analysis_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"emeralds/internal/analysis"
	"emeralds/internal/costmodel"
	"emeralds/internal/experiments"
	"emeralds/internal/sched"
	"emeralds/internal/task"
	"emeralds/internal/workload"
)

// This file holds two searches as they stood before they were sped up,
// as references the tests below hold the fast ones to. The breakdown
// search ran a fresh candidate sweep at every probe, trying the last
// feasible partition first; BreakdownCSD must return bit-identical
// breakdowns. The partition choice tested every candidate;
// BestPartition must return the same partition, score bits and
// verdict.

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

// refBestPartition tests every candidate in Candidates order, keeps the
// first feasible one and replaces it by any feasible candidate of
// strictly lower overhead score.
func refBestPartition(p *costmodel.Profile, rmSorted []task.Spec, numQueues int) (sched.Partition, float64, bool) {
	best := sched.Partition{}
	bestScore := 0.0
	found := false
	for _, cand := range analysis.Candidates(numQueues, len(rmSorted)) {
		if !analysis.FeasibleCSD(p, rmSorted, cand) {
			continue
		}
		score := analysis.OverheadFraction(p, rmSorted, cand)
		if !found || score < bestScore {
			best, bestScore, found = cand, score, true
		}
	}
	return best, bestScore, found
}

// TestBestPartitionMatchesReference requires BestPartition to pick what
// refBestPartition picks, with the same score bits, under CSD-2, -3 and
// -4 and both cost profiles: on random sets at U 0.5–1.0, where many
// candidates fail, and on hand-built sets whose scores tie (equal
// periods; every score is 0 under the zero-cost profile) or are NaN or
// +Inf (a period-0 task).
func TestBestPartitionMatchesReference(t *testing.T) {
	sets := [][]task.Spec{
		specsOf(10, 1, 10, 1, 10, 1, 10, 1, 10, 1, 10, 1),
		append(specsOf(5, 1, 10, 2, 20, 2), task.Spec{}),
		append(specsOf(5, 1, 10, 2, 20, 2), task.Spec{WCET: 1}),
	}
	rng := rand.New(rand.NewSource(1))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for i := 0; i < trials; i++ {
		sets = append(sets, workload.Generate(workload.Config{
			N:           2 + rng.Intn(29),
			Utilization: 0.5 + 0.5*rng.Float64(),
			PeriodDiv:   1 + rng.Intn(3),
			Seed:        rng.Int63(),
		}))
	}
	found := 0
	for i, specs := range sets {
		rm := analysis.SortRM(specs)
		for _, prof := range []*costmodel.Profile{costmodel.M68040(), costmodel.Zero()} {
			for q := 2; q <= 4; q++ {
				part, score, ok := analysis.BestPartition(prof, rm, q)
				wantPart, wantScore, wantOK := refBestPartition(prof, rm, q)
				if ok != wantOK || !reflect.DeepEqual(part, wantPart) || math.Float64bits(score) != math.Float64bits(wantScore) {
					t.Errorf("set %d (%d tasks), %s, CSD-%d: got %v %v %v, reference %v %v %v",
						i, len(specs), prof.Name, q, part, score, ok, wantPart, wantScore, wantOK)
				}
				if ok {
					found++
				}
			}
		}
	}
	if total := 6 * len(sets); found == 0 || found == total {
		t.Errorf("%d of %d searches found a partition: the sets miss feasible or infeasible cases", found, total)
	}
}
