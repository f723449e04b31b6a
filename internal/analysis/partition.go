package analysis

import (
	"math"
	"slices"
	"sync"

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
	// Enumerate into pooled scratch, then copy out exactly: growing the
	// result by append would allocate several times its size.
	b := partitionScratch.Get().(*partitionBufs)
	defer partitionScratch.Put(b)
	var count int
	b.sizes, count = appendCandidates(b.sizes[:0], numQueues, n)
	sizes := slices.Clone(b.sizes)
	out := make([]sched.Partition, count)
	if w := numQueues - 1; w > 0 {
		for i := range out {
			out[i].DPSizes = sizes[i*w : (i+1)*w : (i+1)*w]
		}
	}
	return out
}

// appendCandidates appends the DP queue sizes of every candidate, in
// Candidates order, to dst: numQueues-1 sizes per candidate, none for
// the single pure-RM candidate of numQueues ≤ 1. It also returns the
// candidate count.
func appendCandidates(dst []int, numQueues, n int) ([]int, int) {
	count := 0
	switch {
	case numQueues <= 1:
		count = 1 // pure RM
	case numQueues == 2:
		for r := 1; r <= n; r++ {
			dst = append(dst, r)
			count++
		}
	case numQueues == 3:
		for r := 2; r <= n; r++ {
			for q := 1; q < r; q++ {
				dst = append(dst, q, r-q)
				count++
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
					dst = append(dst, a, b-a, c-b)
					for k := 3; k < numQueues-1; k++ {
						dst = append(dst, 0)
					}
					count++
				}
			}
		}
	}
	return dst, count
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
// Among equal scores the earliest candidate in Candidates order wins.
// The boolean reports whether any partition is feasible.
//
// Scoring a candidate is cheap and testing its feasibility is not, so
// it scores every candidate, allocation-free, and then tests them in
// ascending (score, index) order: the first feasible one is the answer.
// That is the choice of a scan over every candidate that keeps the
// first feasible one and replaces it by any of strictly lower score.
// A NaN score (a period-0 task in a queue charged nothing per period)
// compares false both ways, so that scan keeps its first feasible
// candidate when that one scores NaN, and otherwise never picks a NaN
// score; with any NaN score the search therefore first looks for the
// first feasible candidate in index order.
func BestPartition(p *costmodel.Profile, rmSorted []task.Spec, numQueues int) (sched.Partition, float64, bool) {
	b := partitionScratch.Get().(*partitionBufs)
	defer partitionScratch.Put(b)
	n, w := len(rmSorted), max(numQueues-1, 0)
	var count int
	b.sizes, count = appendCandidates(b.sizes[:0], numQueues, n)
	cand := func(i int) sched.Partition { return sched.Partition{DPSizes: b.sizes[i*w : (i+1)*w]} }
	b.scores, b.order = b.scores[:0], b.order[:0]
	hasNaN := false
	for i := 0; i < count; i++ {
		b.queues = queueSizes(b.queues[:0], cand(i), n)
		score := overheadFraction(p, rmSorted, b.queues, &b.perQueue)
		b.scores = append(b.scores, score)
		if math.IsNaN(score) {
			hasNaN = true
			continue
		}
		b.order = append(b.order, scored{score, i})
	}
	found := func(i int) (sched.Partition, float64, bool) {
		return sched.Partition{DPSizes: append([]int(nil), cand(i).DPSizes...)}, b.scores[i], true
	}
	if hasNaN {
		for i := 0; i < count; i++ {
			if FeasibleCSD(p, rmSorted, cand(i)) {
				if math.IsNaN(b.scores[i]) {
					return found(i)
				}
				break
			}
		}
	}
	slices.SortFunc(b.order, func(x, y scored) int {
		switch {
		case x.score < y.score:
			return -1
		case x.score > y.score:
			return 1
		}
		return x.index - y.index
	})
	for _, c := range b.order {
		if FeasibleCSD(p, rmSorted, cand(c.index)) {
			return found(c.index)
		}
	}
	return sched.Partition{}, 0, false
}

// scored is a candidate's index with its overhead score.
type scored struct {
	score float64
	index int
}

// partitionScratch recycles the buffers of Candidates and
// BestPartition: the candidates' DP sizes, one candidate's queue sizes
// and per-queue charges, and the scores.
var partitionScratch = sync.Pool{New: func() any { return new(partitionBufs) }}

type partitionBufs struct {
	sizes, queues []int
	perQueue      []float64
	scores        []float64
	order         []scored
}

// OverheadFraction computes Σᵢ tᵢ/Pᵢ — the CPU fraction consumed by
// scheduler run-time overhead — for the RM-sorted workload under the
// given CSD partition.
func OverheadFraction(p *costmodel.Profile, rmSorted []task.Spec, part sched.Partition) float64 {
	var perQueue []float64
	return overheadFraction(p, rmSorted, queueSizes(nil, part, len(rmSorted)), &perQueue)
}

// overheadFraction is OverheadFraction for a partition's queue sizes
// (DP queues first, FP last), keeping the per-queue charges in
// *perQueue.
func overheadFraction(p *costmodel.Profile, rmSorted []task.Spec, sizes []int, perQueue *[]float64) float64 {
	n := len(rmSorted)
	numDP := len(sizes) - 1
	pq := (*perQueue)[:0]
	for k := range sizes {
		pq = append(pq, float64(CSDOverheads(p, sizes, k).PerPeriod()))
	}
	*perQueue = pq
	var frac float64
	idx := 0
	for k := 0; k < numDP; k++ {
		for j := 0; j < sizes[k]; j++ {
			frac += pq[k] / float64(rmSorted[idx].Period)
			idx++
		}
	}
	for ; idx < n; idx++ {
		frac += pq[numDP] / float64(rmSorted[idx].Period)
	}
	return frac
}
