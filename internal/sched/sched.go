// Package sched implements the real-time schedulers of §5 of the paper:
// EDF (single unsorted queue), RM (sorted queue with a highestP
// pointer), RM over a binary heap (the Table 1 comparison point), and
// the CSD combined static/dynamic scheduler with any number of queues.
//
// A Scheduler is a passive policy object: the kernel tells it when
// tasks block and unblock and asks it which task to run; every
// operation returns the virtual-time cost charged for it under the
// calibrated cost model, mirroring the t_b / t_u / t_s decomposition of
// §5.1.
package sched

import (
	"fmt"
	"slices"

	"emeralds/internal/costmodel"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// Scheduler is the policy interface the kernel drives.
type Scheduler interface {
	// Name identifies the policy ("EDF", "RM", "CSD-3", ...).
	Name() string

	// Admit registers the full task set at boot. Tasks must already
	// have priorities assigned (see AssignRMPriorities); CSD
	// additionally requires queue assignments (see Partition.Apply).
	Admit(ts []*task.TCB)

	// Block records that t stopped being runnable. The caller must
	// have set t.State = Blocked first. Returns t_b.
	Block(t *task.TCB) vtime.Duration

	// Unblock records that t became runnable. The caller must have set
	// t.State = Ready first. Returns t_u.
	Unblock(t *task.TCB) vtime.Duration

	// Select returns the task to run next (nil if none is ready) and
	// the selection cost t_s.
	Select() (*task.TCB, vtime.Duration)

	// Inherit makes holder run at waiter's effective priority (and,
	// for deadline-driven queues, waiter's effective deadline).
	// optimized selects the EMERALDS O(1) place-holder scheme; the
	// standard scheme repositions holder in sorted order, O(n).
	// Returns the priority-inheritance cost and the task now serving
	// as holder's place-holder (nil when the queue kind needs none).
	Inherit(holder, waiter *task.TCB, optimized bool) (vtime.Duration, *task.TCB)

	// Restore returns holder to the given effective priority/deadline
	// after releasing a semaphore. placeholder is the task whose queue
	// slot holder borrowed under the optimized scheme (nil when none).
	Restore(holder, placeholder *task.TCB, effPrio int, effDeadline vtime.Time, optimized bool) vtime.Duration

	// Detach removes t from this scheduler's queues entirely — the
	// first half of a cross-CPU migration. Returns the queue-surgery
	// cost. The task keeps its State; it is simply no longer this
	// policy's to schedule.
	Detach(t *task.TCB) vtime.Duration

	// Attach inserts t into this scheduler's queues, honoring t.State —
	// the second half of a cross-CPU migration. Returns the insert cost.
	Attach(t *task.TCB) vtime.Duration
}

// AssignRMPriorities sorts the TCBs shortest-period-first and assigns
// BasePrio = EffPrio = rank (0 is highest). Ties break by ID so the
// assignment is deterministic. Returns the RM-sorted slice.
func AssignRMPriorities(ts []*task.TCB) []*task.TCB {
	return assignByKey(ts, func(t *task.TCB) vtime.Duration { return t.Spec.Period })
}

// AssignDMPriorities is the deadline-monotonic variant §5.3 alludes to
// ("or any fixed-priority scheduler such as deadline-monotonic"):
// shortest relative deadline first. For implicit deadlines it
// coincides with RM; with constrained deadlines (D < P) it is the
// optimal fixed-priority assignment.
func AssignDMPriorities(ts []*task.TCB) []*task.TCB {
	return assignByKey(ts, func(t *task.TCB) vtime.Duration { return t.Spec.RelDeadline() })
}

func assignByKey(ts []*task.TCB, key func(*task.TCB) vtime.Duration) []*task.TCB {
	sorted := make([]*task.TCB, len(ts))
	copy(sorted, ts)
	// slices.SortStableFunc: same ordering as sort.SliceStable with
	// this comparator, without the reflect.Swapper allocation (priority
	// assignment runs on every kernel construction, which sweeps do by
	// the hundred thousand).
	slices.SortStableFunc(sorted, func(a, b *task.TCB) int {
		ka, kb := key(a), key(b)
		if ka != kb {
			if ka < kb {
				return -1
			}
			return 1
		}
		return a.ID - b.ID
	})
	for rank, t := range sorted {
		t.BasePrio = rank
		t.EffPrio = rank
	}
	return sorted
}

// AssignCPUs places the task set onto m CPUs and stamps each TCB's CPU
// field. Tasks with an explicit Spec.Affinity (1-based CPU number) go
// where they asked; the rest are placed worst-fit decreasing by
// utilization — heaviest task first onto the least-loaded CPU — the
// standard partitioned-RM heuristic. Ties (equal utilization, equal
// load) break by task ID and lowest CPU index, so the placement is a
// pure function of the specs. Returns the per-CPU task slices, each in
// the original admission order. The CPU field is the only store of the
// placement: Node.Boot calls this on every boot, M = 1 included.
func AssignCPUs(ts []*task.TCB, m int) [][]*task.TCB {
	if m < 1 {
		m = 1
	}
	load := make([]float64, m)
	auto := make([]*task.TCB, 0, len(ts))
	for _, t := range ts {
		if a := t.Spec.Affinity; a > 0 {
			t.CPU = min(a, m) - 1
			load[t.CPU] += t.Spec.Utilization()
		} else {
			auto = append(auto, t)
		}
	}
	slices.SortStableFunc(auto, func(a, b *task.TCB) int {
		ua, ub := a.Spec.Utilization(), b.Spec.Utilization()
		if ua != ub {
			if ua > ub {
				return -1
			}
			return 1
		}
		return a.ID - b.ID
	})
	for _, t := range auto {
		best := 0
		for c := 1; c < m; c++ {
			if load[c] < load[best] {
				best = c
			}
		}
		t.CPU = best
		load[best] += t.Spec.Utilization()
	}
	out := make([][]*task.TCB, m)
	for _, t := range ts {
		out[t.CPU] = append(out[t.CPU], t)
	}
	return out
}

// Partition describes a CSD queue assignment: DPSizes[k] tasks (in RM
// priority order) go to dynamic-priority queue k; the remainder go to
// the fixed-priority queue. CSD-2 has one DP size, CSD-3 two, etc.
type Partition struct {
	DPSizes []int
}

// NumQueues reports the total queue count x of CSD-x.
func (p Partition) NumQueues() int { return len(p.DPSizes) + 1 }

// DPTotal reports r, the number of DP tasks.
func (p Partition) DPTotal() int {
	r := 0
	for _, s := range p.DPSizes {
		r += s
	}
	return r
}

// Validate checks the partition against a task count.
func (p Partition) Validate(n int) error {
	total := 0
	for i, s := range p.DPSizes {
		if s < 0 {
			return fmt.Errorf("sched: DP queue %d has negative size %d", i, s)
		}
		total += s
	}
	if total > n {
		return fmt.Errorf("sched: partition covers %d tasks, workload has %d", total, n)
	}
	return nil
}

// Apply stamps CSDQueue on each TCB of the RM-sorted slice: queue index
// k for DP queue k, len(DPSizes) for the FP queue.
func (p Partition) Apply(rmSorted []*task.TCB) error {
	if err := p.Validate(len(rmSorted)); err != nil {
		return err
	}
	i := 0
	for k, size := range p.DPSizes {
		for j := 0; j < size; j++ {
			rmSorted[i].CSDQueue = k
			i++
		}
	}
	for ; i < len(rmSorted); i++ {
		rmSorted[i].CSDQueue = len(p.DPSizes)
	}
	return nil
}

func (p Partition) String() string {
	return fmt.Sprintf("CSD-%d%v", p.NumQueues(), p.DPSizes)
}

// inheritKeys gives holder the stronger of its and waiter's keys.
func inheritKeys(holder, waiter *task.TCB) {
	if waiter.EffPrio < holder.EffPrio {
		holder.EffPrio = waiter.EffPrio
	}
	if waiter.EffDeadline < holder.EffDeadline {
		holder.EffDeadline = waiter.EffDeadline
	}
}

// profileOrZero guards against a nil profile so pure-logic tests can
// construct schedulers without a cost model.
func profileOrZero(p *costmodel.Profile) *costmodel.Profile {
	if p == nil {
		return costmodel.Zero()
	}
	return p
}
