package analysis

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"emeralds/internal/costmodel"
	"emeralds/internal/sched"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// maxCheckpoints bounds the processor-demand analysis. Workloads that
// exceed it (busy periods exploding as utilization approaches 1) are
// declared infeasible, which is conservative: the breakdown search
// then reports a slightly lower utilization, never a higher one.
const maxCheckpoints = 200000

// SortRM returns the specs sorted shortest-period-first (RM priority
// order), ties broken by original index for determinism.
func SortRM(specs []task.Spec) []task.Spec {
	out := make([]task.Spec, len(specs))
	for i, j := range rmOrder(specs) {
		out[i] = specs[j]
	}
	return out
}

// rmOrder returns the permutation SortRM applies: out[i] = specs[rmOrder[i]].
func rmOrder(specs []task.Spec) []int {
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(specs[a].Period, specs[b].Period) })
	return order
}

// inflated is a task with its WCET inflated by scheduler overhead.
type inflated struct {
	period   vtime.Duration
	deadline vtime.Duration
	wcet     vtime.Duration
}

func inflate(specs []task.Spec, over func(i int) vtime.Duration) []inflated {
	out := make([]inflated, len(specs))
	for i, s := range specs {
		out[i] = inflated{
			period:   s.Period,
			deadline: s.RelDeadline(),
			wcet:     s.WCET + over(i),
		}
	}
	return out
}

func utilization(ts []inflated) float64 {
	var u float64
	for _, t := range ts {
		u += float64(t.wcet) / float64(t.period)
	}
	return u
}

// FeasibleEDF tests the workload under EDF including run-time overhead:
// Σ (cᵢ + t)/Pᵢ ≤ 1 (§5.2: EDF schedules all workloads with U ≤ 1, so
// its schedulability overhead is zero; only the run-time overhead
// matters). Deadlines shorter than periods fall back to the
// processor-demand test.
func FeasibleEDF(p *costmodel.Profile, specs []task.Spec) bool {
	t := EDFOverheads(p, len(specs)).PerPeriod()
	return edfFeasible(inflate(specs, func(int) vtime.Duration { return t }))
}

// edfFeasible is FeasibleEDF's test of the inflated tasks.
func edfFeasible(ts []inflated) bool {
	if implicitDeadlines(ts) {
		return utilization(ts) <= 1.0
	}
	return edfDemandFeasible(ts, nil) == verdictFeasible
}

// FeasibleRM tests the workload under RM including run-time overhead,
// using exact response-time analysis on the RM-sorted set.
func FeasibleRM(p *costmodel.Profile, specs []task.Spec) bool {
	n := len(specs)
	t := RMOverheads(p, n).PerPeriod()
	sorted := SortRM(specs)
	ts := inflate(sorted, func(int) vtime.Duration { return t })
	return rmFeasible(ts)
}

// FeasibleRMHeap is FeasibleRM with the heap implementation's costs.
func FeasibleRMHeap(p *costmodel.Profile, specs []task.Spec) bool {
	n := len(specs)
	t := RMHeapOverheads(p, n).PerPeriod()
	sorted := SortRM(specs)
	ts := inflate(sorted, func(int) vtime.Duration { return t })
	return rmFeasible(ts)
}

// rmFeasible runs response-time analysis over priority-sorted inflated
// tasks: Rᵢ = cᵢ + Σ_{j<i} ⌈Rᵢ/Pⱼ⌉·cⱼ iterated to a fixed point,
// feasible iff Rᵢ ≤ Dᵢ for all i.
func rmFeasible(ts []inflated) bool {
	for i := range ts {
		r := ts[i].wcet
		for iter := 0; ; iter++ {
			w := ts[i].wcet
			for j := 0; j < i; j++ {
				w += vtime.Duration(ceilDiv(int64(r), int64(ts[j].period))) * ts[j].wcet
			}
			if w > ts[i].deadline {
				return false
			}
			if w == r {
				break
			}
			r = w
			if iter > 10000 {
				return false // defensive: should have converged or exceeded D
			}
		}
	}
	return true
}

// verdict is csdVerdict's answer. It splits a rejection by whether a
// larger WCET scale could undo it, which is what lets the breakdown
// search (partitionSearch) skip a partition at every later, larger
// probe.
type verdict uint8

const (
	verdictFeasible verdict = iota
	// verdictFailed: the partition is invalid, or it failed a test that
	// stays failed as WCETs grow — the overload cut, the FP
	// response-time deadline check, the top DP queue's utilization, or
	// the demand test's total-utilization, checkpoint-budget or walk
	// check. Each compares a quantity that is non-decreasing in every
	// inflated WCET (a utilization sum, a least fixed point, a demand)
	// against a bound that does not depend on WCETs, so the partition is
	// rejected at every larger scale too.
	verdictFailed
	// verdictCapped: a fixed-point iteration hit its cap (the FP climb's
	// 10,000 steps or the busy period's 1,000) before reaching a
	// verdict. At a larger scale the iterates take another path and may
	// converge, so this rejection says nothing about larger scales.
	verdictCapped
)

// FeasibleCSD tests the workload under CSD with the given partition,
// including run-time overhead from the Table 3 case analysis. The test
// is hierarchical:
//
//   - the top DP queue runs pure EDF, so it is feasible iff its
//     (inflated) utilization is ≤ 1 (implicit deadlines);
//   - every lower DP queue is tested by processor-demand analysis under
//     ceiling interference from all higher queues;
//   - FP tasks are tested by response-time analysis treating all DP
//     tasks and all higher-priority FP tasks as interference.
//
// The test is sufficient (conservative). Specs must be RM-sorted
// (SortRM) because the partition assigns RM-priority prefixes.
func FeasibleCSD(p *costmodel.Profile, rmSorted []task.Spec, part sched.Partition) bool {
	return csdVerdict(p, rmSorted, part) == verdictFeasible
}

// csdVerdict is FeasibleCSD with the reason for a rejection.
func csdVerdict(p *costmodel.Profile, rmSorted []task.Spec, part sched.Partition) verdict {
	n := len(rmSorted)
	if part.Validate(n) != nil {
		return verdictFailed
	}

	// The partition assigns RM-priority *prefixes*, so queue k owns the
	// contiguous range ts[starts[k]:starts[k+1]] and the "all higher
	// queues" interference set is always the prefix ts[:starts[k]] —
	// no per-queue copies, no assignment table. This function runs
	// O(candidates × probes) times inside every breakdown bisection, so
	// every slice it needs comes from a pooled scratch.
	bufs := csdScratch.Get().(*csdBufs)
	defer csdScratch.Put(bufs)
	sizes := queueSizes(bufs.sizes[:0], part, n)
	numDP := len(sizes) - 1
	starts := append(bufs.starts[:0], 0)
	for _, s := range sizes {
		starts = append(starts, starts[len(starts)-1]+s)
	}
	perQueue := bufs.perQueue[:0]
	for k := range sizes {
		perQueue = append(perQueue, CSDOverheads(p, sizes, k).PerPeriod())
	}
	ts := bufs.ts
	if cap(ts) < n {
		ts = make([]inflated, n)
	} else {
		ts = ts[:n]
	}
	bufs.sizes, bufs.starts, bufs.perQueue, bufs.ts = sizes, starts, perQueue, ts
	for k := range sizes {
		for i := starts[k]; i < starts[k+1]; i++ {
			s := &rmSorted[i]
			ts[i] = inflated{
				period:   s.Period,
				deadline: s.RelDeadline(),
				wcet:     s.WCET + perQueue[k],
			}
		}
	}

	// A cheap exact cut for far-overloaded probes (the bisection's first
	// upper bound doubles the workload well past saturation): when the
	// FP queue is non-empty and the inflated utilization of everything
	// *except the last task* exceeds 1 beyond float-summation error,
	// the last FP task's response-time iteration provably diverges —
	// its interference set is the entire rest of the set — so some test
	// below must return false. Borderline sums fall through to the
	// exact tests.
	if sizes[numDP] > 0 {
		last := ts[n-1]
		if utilization(ts)-float64(last.wcet)/float64(last.period) > 1+1e-9 {
			return verdictFailed
		}
	}

	// FP tasks: RTA with all DP tasks plus higher-priority FP tasks.
	// This runs *before* the DP queue tests: the per-queue checks are
	// independent and conjunctive, so order changes only speed, and in
	// an infeasible probe's candidate sweep the RTA rejects the large
	// majority of candidates at a fraction of a demand walk's cost.
	// Two exactness-preserving accelerations:
	//
	//   - warm start: task i's climb begins at R_{i−1} + cᵢ. The
	//     interference sets are nested and the iteration map monotone,
	//     so the smallest fixed point satisfies Rᵢ ≥ R_{i−1} + cᵢ and
	//     the climb reaches the *same* fixed point — n independent
	//     climbs from cᵢ become one shared climb across the queue.
	//   - incremental ceilings: the response-time candidates queried are
	//     globally nondecreasing (within a climb, and across tasks via
	//     the warm start), so each interferer's ⌈r/Pⱼ⌉·cⱼ term is kept
	//     as a running sum advanced past thresholds — the iterates are
	//     computed bit-for-bit as before, with adds and compares in
	//     place of a division per term per iteration.
	//   - merged equal periods: tasks arrive in RM order, so equal
	//     periods are adjacent and share every threshold; they are kept
	//     as one term whose c is their WCET sum, which gives the same
	//     integer sum with fewer terms to advance.
	higher := ts[:starts[numDP]]
	fp := ts[starts[numDP]:]
	if len(fp) > 0 {
		if v := csdFPFeasible(bufs, higher, fp); v != verdictFeasible {
			return v
		}
	}

	// DP queues, top down, each under interference from higher queues.
	for k := 0; k < numDP; k++ {
		own := ts[starts[k]:starts[k+1]]
		if len(own) == 0 {
			continue
		}
		higher := ts[:starts[k]]
		if len(higher) == 0 && implicitDeadlines(own) {
			if utilization(own) > 1.0 {
				return verdictFailed
			}
		} else if v := edfDemandFeasible(own, higher); v != verdictFeasible {
			return v
		}
	}
	return verdictFeasible
}

// csdFPFeasible runs the FP response-time pass of FeasibleCSD: each FP
// task against the interference of all DP tasks (higher) plus its
// higher-priority FP predecessors. Every iterate lies at or below the
// task's least fixed point, so an iterate past the deadline puts that
// fixed point past it too, at this scale and every larger one.
func csdFPFeasible(bufs *csdBufs, higher, fp []inflated) verdict {
	terms := bufs.terms[:0]
	var interf int64               // Σ ⌈r/Pⱼ⌉·cⱼ over the active interferers
	minThr := int64(math.MaxInt64) // smallest threshold at which any ⌈r/Pⱼ⌉ bumps
	var prev int64
	for i := range fp {
		ci := int64(fp[i].wcet)
		r := prev + ci
		// Activate this task's newly visible interferers at the current
		// candidate r: one seed division each, increments afterwards.
		// Non-positive periods contribute nothing, exactly like ceilDiv.
		// interf counts each term at thr/p periods, so a newcomer whose
		// period equals the last term's joins it there; the scan below
		// then advances both together.
		newcomers := higher
		if i > 0 {
			newcomers = fp[i-1 : i]
		}
		for _, t := range newcomers {
			p, c := int64(t.period), int64(t.wcet)
			if p <= 0 {
				continue
			}
			if last := len(terms) - 1; last >= 0 && terms[last].p == p {
				interf += terms[last].thr / p * c
				terms[last].c += c
				continue
			}
			k := ceilDiv(r, p)
			interf += k * c
			nt := k * p
			terms = append(terms, ceilTerm{p, c, nt})
			if nt < minThr {
				minThr = nt
			}
		}
		for iter := 0; ; iter++ {
			// Bring interf up to r. The watermark makes the no-crossing
			// case (most iterations once the climb is warm) a single
			// comparison; a real crossing rescans the terms, advancing a
			// far-behind threshold with one division instead of a walk.
			if r > minThr {
				minThr = int64(math.MaxInt64)
				for j := range terms {
					t := terms[j].thr
					if t < r {
						p := terms[j].p
						if r-t > p<<6 {
							nt := ceilDiv(r, p) * p
							interf += (nt - t) / p * terms[j].c
							t = nt
						} else {
							for t < r {
								t += p
								interf += terms[j].c
							}
						}
						terms[j].thr = t
					}
					if t < minThr {
						minThr = t
					}
				}
			}
			w := ci + interf
			if w > int64(fp[i].deadline) {
				bufs.terms = terms
				return verdictFailed
			}
			if w == r {
				prev = r
				break
			}
			r = w
			if iter > 10000 {
				bufs.terms = terms
				return verdictCapped
			}
		}
	}
	bufs.terms = terms
	return verdictFeasible
}

// ceilTerm carries one interferer's ⌈x/p⌉·c term through a fixed-point
// climb: thr is the next multiple of p at which the ceiling bumps, so
// advancing a nondecreasing query point costs adds and compares, not a
// division per term per iteration.
type ceilTerm struct{ p, c, thr int64 }

// csdScratch recycles every per-call slice of FeasibleCSD — the queue
// sizes and prefix table, per-queue overheads, inflated task array, and
// the RTA interference terms.
var csdScratch = sync.Pool{New: func() any { return new(csdBufs) }}

type csdBufs struct {
	sizes    []int
	starts   []int
	perQueue []vtime.Duration
	ts       []inflated
	terms    []ceilTerm
}

func implicitDeadlines(ts []inflated) bool {
	for _, t := range ts {
		if t.deadline < t.period {
			return false
		}
	}
	return true
}

// demandStream is one task's arithmetic progression of absolute
// deadlines inside the processor-demand walk: d is the next unvisited
// deadline, p the period (the progression's stride), c the WCET that
// becomes due at each point.
type demandStream struct{ d, p, c int64 }

// demandScratch recycles the merge-heap and interference buffers across
// edfDemandFeasible calls: the test runs millions of times inside a
// breakdown bisection (once per candidate partition per probe).
var demandScratch = sync.Pool{New: func() any { return new(demandBufs) }}

type demandBufs struct {
	streams []demandStream
	hp, hc  []int64
	busy    []ceilTerm
}

// siftDown restores the min-by-deadline heap property from index i.
func siftDown(h []demandStream, i int) {
	for {
		min, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].d < h[min].d {
			min = l
		}
		if r < len(h) && h[r].d < h[min].d {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// edfDemandFeasible runs the processor-demand test for `own` tasks
// scheduled EDF under ceiling interference from `higher` tasks:
//
//	∀d ∈ deadlines(own), d ≤ L:  dbf_own(d) + Σ_higher ⌈d/Pₕ⌉·cₕ ≤ d
//
// where L is the level-(own ∪ higher) busy period. Exceeding the
// checkpoint budget counts as infeasible (conservative).
//
// The checkpoints are enumerated per task (each an arithmetic
// progression of deadlines), then merged into one sorted walk: since
// dbf_own(d) = Σ {cₒ · jobs} counts exactly the own-task deadlines at
// or before d, the demand at each checkpoint is a running sum — O(1)
// per point — instead of an O(|own|) recomputation with two integer
// divisions per task. Only the ceiling interference still costs
// O(|higher|) divisions per point. The verdict is identical to the
// naive per-point recomputation: the same checkpoint set is tested
// against the same integer demand, and the checkpoint budget counts
// the same per-task points.
//
// Only a busy period that does not converge is verdictCapped. The
// other rejections stay failed as WCETs grow: the total utilization,
// the busy period (a least fixed point, so the checkpoint count) and
// the demand at every checkpoint are all non-decreasing in each WCET,
// and a failing checkpoint is never past the walk's truncation.
func edfDemandFeasible(own, higher []inflated) verdict {
	if len(own) == 0 {
		return verdictFeasible
	}
	var total float64
	for _, t := range own {
		total += float64(t.wcet) / float64(t.period)
	}
	for _, t := range higher {
		total += float64(t.wcet) / float64(t.period)
	}
	if total > 1.0 {
		return verdictFailed
	}

	// Busy period: L = Σ ⌈L/Pᵢ⌉·cᵢ over own ∪ higher. The fixed-point
	// iterates l₀ = ΣC < l₁ < … are computed bit-for-bit as the classic
	// recomputation — each w is the exact Σ ⌈l/Pᵢ⌉·cᵢ — but the
	// ceilings are carried incrementally: near saturation the climb
	// creeps in steps far smaller than any period, so most iterations
	// touch no threshold at all; a jump past many periods reseeds with
	// one division. Tasks with non-positive periods contribute nothing,
	// exactly like ceilDiv.
	var sumC vtime.Duration
	for _, t := range own {
		sumC += t.wcet
	}
	for _, t := range higher {
		sumC += t.wcet
	}
	bufs := demandScratch.Get().(*demandBufs)
	defer demandScratch.Put(bufs)
	l := int64(sumC)
	busy := bufs.busy[:0]
	var busyW int64 // Σ ⌈l/Pᵢ⌉·cᵢ at the current l
	// higher before own: in a CSD queue the two are adjacent runs of the
	// RM order, so equal periods arrive together and merge into one term.
	seed := func(ts []inflated) {
		for _, t := range ts {
			p, c := int64(t.period), int64(t.wcet)
			if p <= 0 {
				continue
			}
			k := ceilDiv(l, p)
			busyW += k * c
			if last := len(busy) - 1; last >= 0 && busy[last].p == p {
				busy[last].c += c
				continue
			}
			busy = append(busy, ceilTerm{p, c, k * p})
		}
	}
	seed(higher)
	seed(own)
	bufs.busy = busy
	for iter := 0; iter < 1000; iter++ {
		if busyW == l {
			break
		}
		l = busyW
		if iter == 999 {
			return verdictCapped // busy period did not converge: treat as infeasible
		}
		for j := range busy {
			if t := busy[j].thr; t < l {
				p := busy[j].p
				if l-t > p<<6 {
					nt := ceilDiv(l, p) * p
					busyW += (nt - t) / p * busy[j].c
					t = nt
				} else {
					for t < l {
						t += p
						busyW += busy[j].c
					}
				}
				busy[j].thr = t
			}
		}
	}

	// Checkpoint budget, in closed form: the count of per-task deadline
	// points in [0, L] is known without enumerating them.
	var nPts int64
	for _, t := range own {
		if d0 := int64(t.deadline); d0 <= l {
			nPts += (l-d0)/int64(t.period) + 1
			if nPts > maxCheckpoints {
				return verdictFailed
			}
		}
	}
	if nPts == 0 {
		return verdictFeasible
	}

	// Exact truncation of the walk (never of the budget above): the
	// ceilings and floors bound demand(d) + I(d) ≤ U_total·d + B with
	// B = Σₕ cₕ + Σₒ (Pₒ−Dₒ)·cₒ/Pₒ, so every checkpoint at
	// d ≥ B/(1−U_total) passes by algebra and needs no test. The float
	// cap is rounded *up* (relative and absolute margins dominate the
	// ~1e-14 summation error), so skipped points are always provably
	// clean; near-saturated probes shrink from the full busy period to
	// a few multiples of the interference backlog.
	walkL := l
	var slack float64
	for _, t := range own {
		slack += float64(int64(t.period)-int64(t.deadline)) * float64(t.wcet) / float64(t.period)
	}
	for _, t := range higher {
		slack += float64(t.wcet)
	}
	slackUp := slack + 1e-9*math.Abs(slack) + 1
	if denom := 1 - (total + 1e-9); denom > 0 {
		if cap := slackUp / denom; cap < float64(walkL) {
			walkL = int64(cap) + 1
		}
	}

	// One stream per own task, merged by a small min-heap: the next
	// checkpoint is always the heap root, advanced in place by its
	// period. O(log |own|) per point, no materialized point list, no
	// comparison-function sort.
	streams := bufs.streams[:0]
	for _, t := range own {
		if d0 := int64(t.deadline); d0 <= walkL {
			streams = append(streams, demandStream{d0, int64(t.period), int64(t.wcet)})
		}
	}
	bufs.streams = streams
	for i := len(streams)/2 - 1; i >= 0; i-- {
		siftDown(streams, i)
	}

	// The interference terms, equal periods merged as in the busy period.
	hp, hc := bufs.hp[:0], bufs.hc[:0]
	for _, h := range higher {
		if last := len(hp) - 1; last >= 0 && hp[last] == int64(h.period) {
			hc[last] += int64(h.wcet)
			continue
		}
		hp = append(hp, int64(h.period))
		hc = append(hc, int64(h.wcet))
	}
	bufs.hp, bufs.hc = hp, hc

	var demand int64
	for len(streams) > 0 {
		d := streams[0].d
		// Fold in every stream whose next deadline is exactly d before
		// checking, so each unique time is tested once with the full
		// demand due at it.
		for len(streams) > 0 && streams[0].d == d {
			demand += streams[0].c
			if nd := d + streams[0].p; nd <= walkL {
				streams[0].d = nd
			} else {
				streams[0] = streams[len(streams)-1]
				streams = streams[:len(streams)-1]
			}
			siftDown(streams, 0)
		}
		// demand + Σ ⌈d/Pₕ⌉·cₕ > d, rearranged to keep `demand` a pure
		// running sum across checkpoints.
		supply := d
		for j, p := range hp {
			supply -= ceilDiv(d, p) * hc[j]
		}
		if demand > supply {
			return verdictFailed
		}
	}
	return verdictFeasible
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
