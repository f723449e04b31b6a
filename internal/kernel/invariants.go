package kernel

import (
	"fmt"

	"emeralds/internal/vtime"
)

// CheckInvariants audits the kernel's quiescent-state invariants and
// returns one message per violation (nil when healthy). It is meant to
// be called between events — typically after Run returns — when every
// in-flight wakeup has been delivered; the fuzz campaign surfaces
// violations as findings instead of crashing mid-simulation, so one
// broken scenario produces a minimizable repro rather than a dead
// worker pool.
func (k *Kernel) CheckInvariants() []string {
	var bad []string

	// Mailboxes and virtual links: a queued message coexisting with a
	// parked receiver, or a parked sender whose whole claim now fits, is
	// a lost wakeup — pump must have moved one side. The highest-priority
	// parked sender gates the queue, so the others legitimately wait
	// behind it; drop-mode sends never park at all.
	for _, links := range [...][]*link{k.mboxes, k.vlinks} {
		for _, l := range links {
			if l.q.Len() > 0 && l.recvq.Len() > 0 {
				bad = append(bad, fmt.Sprintf(
					"%s %s: %d messages queued while %d receivers blocked (lost wakeup)",
					l.noun, l.q.Name, l.q.Len(), l.recvq.Len()))
			}
			head := l.sendq.Peek()
			if head == nil {
				continue
			}
			if l.drop {
				bad = append(bad, fmt.Sprintf(
					"%s %s: %d senders blocked on a drop-mode link",
					l.noun, l.q.Name, l.sendq.Len()))
			} else if op, ok := l.pendingSend(head); ok && l.q.Space() >= l.claim(op) {
				bad = append(bad, fmt.Sprintf(
					"%s %s: %d free slots fit the head batch of %d while %d senders blocked (lost wakeup)",
					l.noun, l.q.Name, l.q.Space(), l.claim(op), l.sendq.Len()))
			}
		}
	}

	// Semaphores: a free mutex (or a counting semaphore with permits)
	// must not strand waiters, and a held mutex must be held by a live
	// job — completeJob releases everything a job held.
	for _, s := range k.sems {
		if s.isMutex() {
			if s.owner == nil && s.waiters.Len() > 0 {
				bad = append(bad, fmt.Sprintf(
					"semaphore %s: free with %d waiters queued (lost grant)",
					s.name, s.waiters.Len()))
			}
			if s.owner != nil && !s.owner.jobActive {
				bad = append(bad, fmt.Sprintf(
					"semaphore %s: held by %s whose job already retired (leaked lock)",
					s.name, s.owner.TCB.Name))
			}
		} else if s.count > 0 && s.waiters.Len() > 0 {
			bad = append(bad, fmt.Sprintf(
				"semaphore %s: count %d with %d waiters queued (lost grant)",
				s.name, s.count, s.waiters.Len()))
		}
	}

	// Accounting: the kernel-wide counters are incremented in lockstep
	// with the per-TCB ones; a skew means a path updated one and not
	// the other.
	var rel, comp, miss uint64
	for _, th := range k.threads {
		rel += th.TCB.Releases
		comp += th.TCB.Completions
		miss += th.TCB.Misses
	}
	st := k.Stats()
	if rel != st.Releases {
		bad = append(bad, fmt.Sprintf("stats: Releases=%d but Σ task releases=%d", st.Releases, rel))
	}
	if comp != st.Completions {
		bad = append(bad, fmt.Sprintf("stats: Completions=%d but Σ task completions=%d", st.Completions, comp))
	}
	if miss != st.Misses {
		bad = append(bad, fmt.Sprintf("stats: Misses=%d but Σ task misses=%d", st.Misses, miss))
	}

	// Charges: every overhead bucket accumulates non-negative charges
	// only (charge() guards the hot path; this catches direct writes).
	for _, c := range []struct {
		name string
		d    vtime.Duration
	}{
		{"SchedCharge", k.stats.SchedCharge},
		{"SwitchCharge", k.stats.SwitchCharge},
		{"SemCharge", k.stats.SemCharge},
		{"IPCCharge", k.stats.IPCCharge},
		{"TimerCharge", k.stats.TimerCharge},
		{"SyscallCharge", k.stats.SyscallCharge},
		{"UsefulCompute", k.stats.UsefulCompute},
		{"MigrationCharge", k.stats.MigrationCharge},
		{"IPICharge", k.stats.IPICharge},
		{"LockCharge", k.stats.LockCharge},
	} {
		if c.d < 0 {
			bad = append(bad, fmt.Sprintf("stats: negative %s %v", c.name, c.d))
		}
	}

	// Occupancy: the per-CPU consumed-overhead accumulator is reset at
	// every occupancy end; a stale positive value after quiescence means
	// an exit path forgot traceOccupancyEnd and the next dispatch would
	// inherit another task's overhead.
	for _, c := range k.cpus {
		if c.current == nil && c.ovAcc != 0 {
			bad = append(bad, fmt.Sprintf("cpu%d: idle with leaked occupancy overhead %v", c.id, c.ovAcc))
		}
	}
	return bad
}
