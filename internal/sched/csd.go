package sched

import (
	"fmt"

	"emeralds/internal/costmodel"
	"emeralds/internal/metrics"
	"emeralds/internal/schedq"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// CSD is the combined static/dynamic scheduler of §5 — the paper's
// central contribution. Tasks are sorted by RM priority and split
// across x queues: the first x−1 are dynamic-priority (DP) queues
// scheduled EDF-within-queue, the last is the fixed-priority (FP)
// queue scheduled RM. The queues themselves are priority-ordered: the
// scheduler always serves DP1 before DP2 before … before FP.
//
// Each DP queue keeps a counter of ready tasks so that an empty DP
// queue is skipped without parsing it (§5.3: "A counter keeps track of
// the number of ready tasks in the DP queue"). Selection charges the
// §5.7 queue-list parse cost of 0.55 µs per queue examined.
type CSD struct {
	part       Partition
	dp         []dpQueue
	fp         schedq.Sorted
	profile    *costmodel.Profile
	noCounters bool
	met        *metrics.Set // never nil; replaced by the kernel at Boot
}

type dpQueue struct {
	q     schedq.Unsorted
	ready int
}

// NewCSD returns a CSD scheduler with the given partition. CSD-2 is
// NewCSD(p, Partition{DPSizes: []int{r}}), CSD-3 has two DP sizes, etc.
func NewCSD(profile *costmodel.Profile, part Partition) *CSD {
	return &CSD{
		part:    part,
		dp:      make([]dpQueue, len(part.DPSizes)),
		profile: profileOrZero(profile),
		// A private discard set, not nil and not a shared global:
		// Inc on the hot select path stays branch-predictable without
		// a nil guard, and parallel sweep workers never share storage.
		met: &metrics.Set{},
	}
}

// Name implements Scheduler.
func (s *CSD) Name() string { return fmt.Sprintf("CSD-%d", s.part.NumQueues()) }

// SetMetrics implements metrics.Instrumented: selections and
// cross-queue PI migrations are counted from the scheduler's own hot
// paths.
func (s *CSD) SetMetrics(m *metrics.Set) { s.met = m }

// Partition returns the queue partition in effect.
func (s *CSD) Partition() Partition { return s.part }

// Admit implements Scheduler. Tasks must carry RM priorities and CSD
// queue assignments (AssignRMPriorities then Partition.Apply).
func (s *CSD) Admit(ts []*task.TCB) {
	for _, t := range ts {
		t.CSDCur = t.CSDQueue
		t.DPCounted = false
		if t.CSDQueue < len(s.dp) {
			s.dp[t.CSDQueue].q.Insert(t)
			if t.State == task.Ready {
				s.dp[t.CSDQueue].ready++
				t.DPCounted = true
			}
		} else {
			s.fp.Insert(t)
		}
	}
}

// Block implements Scheduler. DP tasks: O(1) flag flip plus counter
// decrement. FP tasks: highestP re-scan, as in RM.
//
// The decrement is guarded by DPCounted — the flag recording whether
// the task is included in its queue's §5.3 ready counter (t.State
// cannot serve as the guard: the kernel flips it to Blocked before
// calling here). An unguarded decrement would let a double-block, or a
// block of a never-unblocked task, drive the counter negative, and
// Select would then skip a non-empty queue forever.
func (s *CSD) Block(t *task.TCB) vtime.Duration {
	if k := t.CSDCur; k < len(s.dp) {
		if t.DPCounted {
			s.dp[k].ready--
			t.DPCounted = false
		}
		return s.profile.EDFBlock()
	}
	scanned := s.fp.Block(t)
	return s.profile.RMBlock(scanned)
}

// Unblock implements Scheduler. DP tasks: O(1). FP tasks: O(1)
// comparison against highestP. Guarded like Block: a double-unblock
// must not inflate the ready counter, or Select would pay for parsing
// a queue whose scan then finds nothing.
func (s *CSD) Unblock(t *task.TCB) vtime.Duration {
	if k := t.CSDCur; k < len(s.dp) {
		if !t.DPCounted {
			s.dp[k].ready++
			t.DPCounted = true
		}
		return s.profile.EDFUnblock()
	}
	s.fp.Unblock(t)
	return s.profile.RMUnblock()
}

// DisableReadyCounters ablates the §5.3 per-queue ready counters: every
// selection scans each DP queue instead of skipping empty ones. Used by
// the ablation benchmark to quantify the counters' contribution; call
// before Admit.
func (s *CSD) DisableReadyCounters() { s.noCounters = true }

// Select implements Scheduler: parse the queue list in priority order;
// the first DP queue with a non-zero ready counter is parsed EDF-style;
// if all DP counters are zero, read the FP queue's highestP. With the
// counters ablated, empty DP queues are scanned in full before moving
// on.
func (s *CSD) Select() (*task.TCB, vtime.Duration) {
	s.met.Inc(metrics.SchedSelects)
	var cost vtime.Duration
	for k := range s.dp {
		cost += s.profile.CSDParse(1)
		if s.noCounters {
			best, scanned := s.dp[k].q.SelectEarliest()
			cost += s.profile.EDFSelect(scanned)
			if best != nil {
				return best, cost
			}
			continue
		}
		if s.dp[k].ready > 0 {
			best, scanned := s.dp[k].q.SelectEarliest()
			return best, cost + s.profile.EDFSelect(scanned)
		}
	}
	cost += s.profile.CSDParse(1)
	return s.fp.HighestP(), cost + s.profile.RMSelect()
}

// Inherit implements Scheduler.
//
// Within the FP queue the mechanics are exactly RM's (§6.2): standard =
// sorted reposition O(n−r); optimized = place-holder swap O(1). Within
// a DP queue both schemes are an O(1) TCB update. When holder and
// waiter live in different queues the holder migrates to the waiter's
// (higher-priority) queue for the duration of the inheritance —
// otherwise the queue-ordering rule "serve DP1 before DP2 before FP"
// would leave the boosted holder unrunnable behind ready tasks of the
// waiter's queue (a cross-queue priority inversion the paper's
// same-queue discussion does not reach; see DESIGN.md §3.4).
func (s *CSD) Inherit(holder, waiter *task.TCB, optimized bool) (vtime.Duration, *task.TCB) {
	inheritKeys(holder, waiter)
	hq, wq := holder.CSDCur, waiter.CSDCur
	switch {
	case hq == wq && hq >= len(s.dp): // both FP
		if optimized {
			s.fp.Swap(holder, waiter)
			return s.profile.PIStep, waiter
		}
		scanned := s.fp.Reposition(holder)
		return s.profile.PIReposition(scanned), nil
	case hq == wq: // same DP queue
		return s.profile.PIStep, nil
	case wq < hq: // waiter's queue has higher priority: migrate
		return s.profile.PIStep + s.migrate(holder, wq), nil
	default: // holder already in a higher-priority queue: keys suffice
		return s.profile.PIStep, nil
	}
}

// Restore implements Scheduler.
func (s *CSD) Restore(holder, placeholder *task.TCB, effPrio int, effDeadline vtime.Time, optimized bool) vtime.Duration {
	holder.EffPrio = effPrio
	holder.EffDeadline = effDeadline
	var cost vtime.Duration
	if holder.CSDCur != holder.CSDQueue {
		cost += s.migrate(holder, holder.CSDQueue)
	}
	if holder.CSDCur >= len(s.dp) { // in FP: fix queue position
		if optimized {
			if placeholder != nil && placeholder.CSDCur >= len(s.dp) {
				s.fp.Swap(holder, placeholder)
			}
			return cost + s.profile.PIStep
		}
		scanned := s.fp.Reposition(holder)
		return cost + s.profile.PIReposition(scanned)
	}
	return cost + s.profile.PIStep
}

// migrate moves t to queue k, keeping the ready counters and highestP
// coherent. Unlink and unsorted insert are O(1); entering the FP queue
// pays the sorted-insert scan.
func (s *CSD) migrate(t *task.TCB, k int) vtime.Duration {
	var cost vtime.Duration
	if cur := t.CSDCur; cur < len(s.dp) {
		s.dp[cur].q.Remove(t)
		if t.DPCounted {
			s.dp[cur].ready--
			t.DPCounted = false
		}
	} else {
		scanned := s.fp.Remove(t)
		cost += s.profile.RMBlock(scanned) // highestP re-home scan
	}
	t.CSDCur = k
	if k < len(s.dp) {
		s.dp[k].q.Insert(t)
		if t.State == task.Ready {
			s.dp[k].ready++
			t.DPCounted = true
		}
	} else {
		scanned := s.fp.Insert(t)
		cost += s.profile.RMInsert(scanned)
	}
	s.met.Inc(metrics.PIMigrations)
	return cost
}

// Detach implements Scheduler: the removal half of migrate, from
// whichever queue currently holds t (DP unlink + counter decrement, or
// FP removal with the highestP re-home scan).
func (s *CSD) Detach(t *task.TCB) vtime.Duration {
	if cur := t.CSDCur; cur < len(s.dp) {
		s.dp[cur].q.Remove(t)
		if t.DPCounted {
			s.dp[cur].ready--
			t.DPCounted = false
		}
		return s.profile.EDFBlock()
	}
	scanned := s.fp.Remove(t)
	return s.profile.RMBlock(scanned)
}

// Attach implements Scheduler: the insertion half of migrate, into t's
// home queue on this instance. Any cross-queue inheritance migration is
// reset — the task arrives at its own priority, as after a Restore.
func (s *CSD) Attach(t *task.TCB) vtime.Duration {
	t.CSDCur = t.CSDQueue
	if k := t.CSDQueue; k < len(s.dp) {
		s.dp[k].q.Insert(t)
		if t.State == task.Ready && !t.DPCounted {
			s.dp[k].ready++
			t.DPCounted = true
		}
		return s.profile.EDFUnblock()
	}
	scanned := s.fp.Insert(t)
	return s.profile.RMInsert(scanned)
}

// FPQueue exposes the FP queue for white-box tests.
func (s *CSD) FPQueue() *schedq.Sorted { return &s.fp }

// DPQueue exposes DP queue k for white-box tests.
func (s *CSD) DPQueue(k int) *schedq.Unsorted { return &s.dp[k].q }

// CheckInvariants validates counters and FP queue structure (tests).
func (s *CSD) CheckInvariants() error {
	for k := range s.dp {
		if got := s.dp[k].q.ReadyCount(); got != s.dp[k].ready {
			return fmt.Errorf("sched: DP%d ready counter=%d, actual=%d", k+1, s.dp[k].ready, got)
		}
	}
	return s.fp.CheckInvariants()
}
