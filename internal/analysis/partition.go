package analysis

import (
	"math"

	"emeralds/internal/costmodel"
	"emeralds/internal/sched"
	"emeralds/internal/task"
)

// This file implements the off-line queue-partition search of §5.5.3:
// "we use an off-line exhaustive search ... to find the best possible
// allocation of tasks to DP1, DP2, and FP queues. The search runs in
// O(n²) time for three queues."

// Candidates enumerates the partitions tried for a CSD scheduler with
// numQueues queues over n RM-sorted tasks. For CSD-2 this is every DP
// length r ∈ [1, n] (O(n)); for CSD-3 every (q, r) with
// 1 ≤ q < r ≤ n (O(n²), as in the paper); for CSD-4 and beyond the
// innermost boundaries are strided so the candidate count stays near
// O(n²) — the paper itself stops exhaustive search at three queues
// ("this is a computationally-intensive task").
func Candidates(numQueues, n int) []sched.Partition {
	var out []sched.Partition
	switch {
	case numQueues <= 1:
		out = append(out, sched.Partition{DPSizes: nil}) // pure RM
	case numQueues == 2:
		for r := 1; r <= n; r++ {
			out = append(out, sched.Partition{DPSizes: []int{r}})
		}
	case numQueues == 3:
		for r := 2; r <= n; r++ {
			for q := 1; q < r; q++ {
				out = append(out, sched.Partition{DPSizes: []int{q, r - q}})
			}
		}
	default:
		// CSD-4+: strided search. §5.5.2's guidance — "keep only a few
		// tasks in DP1" because the shortest-period tasks dominate the
		// run-time overhead — caps the first boundary at 8; the later
		// boundaries are strided so the candidate count stays near the
		// O(n²) of the paper's own three-queue search.
		maxA := 8
		if maxA > n-2 {
			maxA = n - 2
		}
		for a := 1; a <= maxA; a++ {
			stepB := 1
			if n-a > 12 {
				stepB = (n - a) / 12
			}
			for b := a + 1; b < n; b += stepB {
				stepC := 1
				if n-b > 12 {
					stepC = (n - b) / 12
				}
				for c := b + 1; c <= n; c += stepC {
					sizes := []int{a, b - a, c - b}
					for len(sizes) < numQueues-1 {
						sizes = append(sizes, 0)
					}
					out = append(out, sched.Partition{DPSizes: sizes[:numQueues-1]})
				}
			}
		}
	}
	return out
}

// FindPartition returns the first feasible partition for the RM-sorted
// workload under CSD with numQueues queues, in Candidates order. The
// boolean reports whether any candidate was feasible.
func FindPartition(p *costmodel.Profile, rmSorted []task.Spec, numQueues int) (sched.Partition, bool) {
	for _, cand := range Candidates(numQueues, len(rmSorted)) {
		if FeasibleCSD(p, rmSorted, cand) {
			return cand, true
		}
	}
	return sched.Partition{}, false
}

// partitionSearch answers FindPartition's question — is any candidate
// feasible? — at every probe of one breakdown bisection, which scales
// the same RM-sorted workload up and down. It builds the candidates
// once and carries two things from probe to probe:
//
//   - the last feasible candidate, tried first: neighbouring probes
//     usually accept the same split;
//   - dead[i], the smallest scale at which candidate i got
//     verdictFailed (+Inf while it has not). vtime.Scale is
//     non-decreasing in the factor for non-negative WCETs, so every
//     inflated WCET at a scale ≥ dead[i] is at least what it was there,
//     and the candidate fails again: it is skipped without a test.
//
// A verdictCapped candidate stays live. Skipping only candidates whose
// test would return false keeps every probe's answer, and so the
// bisection path and the breakdown, bit-identical to a fresh
// FindPartition per probe.
type partitionSearch struct {
	prof  *costmodel.Profile
	cands []sched.Partition
	dead  []float64
	last  int // index of the last feasible candidate; -1 before any
}

func newPartitionSearch(p *costmodel.Profile, numQueues, n int) *partitionSearch {
	s := &partitionSearch{prof: p, cands: Candidates(numQueues, n), last: -1}
	s.dead = make([]float64, len(s.cands))
	for i := range s.dead {
		s.dead[i] = math.Inf(1)
	}
	return s
}

// feasible reports whether some candidate is feasible for scaled, the
// workload at scale f.
func (s *partitionSearch) feasible(f float64, scaled []task.Spec) bool {
	if s.last >= 0 && s.try(s.last, f, scaled) {
		return true
	}
	for i := range s.cands {
		if i != s.last && s.try(i, f, scaled) {
			s.last = i
			return true
		}
	}
	return false
}

// try tests candidate i at scale f, unless a smaller scale ruled it out.
func (s *partitionSearch) try(i int, f float64, scaled []task.Spec) bool {
	if f >= s.dead[i] {
		return false
	}
	switch csdVerdict(s.prof, scaled, s.cands[i]) {
	case verdictFeasible:
		return true
	case verdictFailed:
		s.dead[i] = f
	}
	return false
}

// BestPartition returns the feasible partition that minimizes the total
// scheduler overhead fraction Σᵢ tᵢ/Pᵢ (§5.5.2: "Task allocation should
// minimize the sum of the run-time and schedulability overheads" —
// schedulability is enforced by feasibility, run-time by the score).
// The boolean reports whether any partition is feasible.
func BestPartition(p *costmodel.Profile, rmSorted []task.Spec, numQueues int) (sched.Partition, float64, bool) {
	best := sched.Partition{}
	bestScore := 0.0
	found := false
	for _, cand := range Candidates(numQueues, len(rmSorted)) {
		if !FeasibleCSD(p, rmSorted, cand) {
			continue
		}
		score := OverheadFraction(p, rmSorted, cand)
		if !found || score < bestScore {
			best, bestScore, found = cand, score, true
		}
	}
	return best, bestScore, found
}

// OverheadFraction computes Σᵢ tᵢ/Pᵢ — the CPU fraction consumed by
// scheduler run-time overhead — for the RM-sorted workload under the
// given CSD partition.
func OverheadFraction(p *costmodel.Profile, rmSorted []task.Spec, part sched.Partition) float64 {
	n := len(rmSorted)
	sizes := queueSizes(nil, part, n)
	numDP := len(sizes) - 1
	perQueue := make([]float64, len(sizes))
	for k := range sizes {
		perQueue[k] = float64(CSDOverheads(p, sizes, k).PerPeriod())
	}
	var frac float64
	idx := 0
	for k := 0; k < numDP; k++ {
		for j := 0; j < sizes[k]; j++ {
			frac += perQueue[k] / float64(rmSorted[idx].Period)
			idx++
		}
	}
	for ; idx < n; idx++ {
		frac += perQueue[numDP] / float64(rmSorted[idx].Period)
	}
	return frac
}
