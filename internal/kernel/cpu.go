package kernel

import (
	"fmt"

	"emeralds/internal/metrics"
)

// Task migration (multicore kernels only).
//
// A task moves between CPUs only through the explicit Migrate
// operation, and only at a segment boundary — the predictable-migration
// discipline: no mid-op snatching, so WCET analysis treats a segment as
// the unit of placement. The move itself is modeled as it would execute
// on hardware: the source CPU detaches the task from its scheduler and
// pays the migration cost (cache and TCB hand-off), the task spends
// that long in transit belonging to no run queue, and the target CPU
// attaches it under an IPI. Wakeups that land mid-transit only flip the
// task's State; Attach honors it on arrival.

// Migrate requests moving th to CPU target. When th is not running, the
// move happens immediately; when it is mid-segment, the request is
// recorded and served at the next segment boundary. Migration is
// refused for pinned tasks and at unsafe points: while th holds any
// semaphore, or while it serves as a §6.2 place-holder in its queue —
// both would tear queue invariants that span the critical section.
func (k *Kernel) Migrate(th *Thread, target int) error {
	if len(k.cpus) == 1 {
		return fmt.Errorf("kernel: Migrate on a single-CPU kernel")
	}
	if target < 0 || target >= len(k.cpus) {
		return fmt.Errorf("kernel: Migrate to cpu%d of %d", target, len(k.cpus))
	}
	if th.TCB.Spec.Pinned {
		return fmt.Errorf("kernel: task %s is pinned to cpu%d", th.TCB.Name, th.TCB.CPU)
	}
	if th.migrating {
		return fmt.Errorf("kernel: task %s already migrating", th.TCB.Name)
	}
	if target == th.TCB.CPU {
		return nil
	}
	if err := k.migrationSafe(th); err != nil {
		return err
	}
	src := k.cpuOf(th)
	if src.current == th && src.seg != nil {
		// Mid-segment: defer to the boundary (afterOp serves it).
		th.migrateTo = target
		return nil
	}
	k.withExec(src, func() { k.doMigrate(th, target) })
	return nil
}

// migrationSafe reports why th cannot migrate right now, nil if it can.
func (k *Kernel) migrationSafe(th *Thread) error {
	if th.holder.HeldCount() > 0 {
		return fmt.Errorf("kernel: task %s holds a semaphore", th.TCB.Name)
	}
	for _, s := range k.sems {
		if s.inh.Active && s.inh.Placeholder == th.TCB {
			return fmt.Errorf("kernel: task %s is a PI place-holder for %s", th.TCB.Name, s.name)
		}
	}
	return nil
}

// doMigrate runs on the source CPU (k.exec) at a safe boundary: detach,
// charge the migration cost, and put th in transit.
func (k *Kernel) doMigrate(th *Thread, target int) {
	src := k.exec
	tcb := th.TCB
	if src.current == th {
		// The migration ends th's occupancy on this CPU; close it like a
		// preemption so replay can partition the span.
		k.trAddDur(traceKindMigrate, tcb.Name, fmt.Sprintf("to=cpu%d", target), src.ovAcc)
		src.ovAcc = 0
		src.noteIdle(k.eng.Now())
		src.current = nil
	} else {
		k.trAdd(traceKindMigrate, tcb.Name, fmt.Sprintf("to=cpu%d", target))
	}
	detach := k.sched(tcb).Detach(tcb)
	k.lockRunq(tcb.CPU, detach)
	k.charge(detach, &k.stats.SchedCharge)
	k.charge(k.prof.Migration, &k.stats.MigrationCharge)
	src.met.Inc(metrics.Migrations)
	th.migrating = true
	from := tcb.CPU
	tgt := k.cpus[target]
	k.eng.After(k.prof.Migration, "migrate:"+tcb.Name, func() {
		k.exec = tgt
		k.migrateArrive(th, tgt, from)
	})
	k.reschedule()
}

// migrateArrive runs on the target CPU when the transit delay elapses:
// the IPI lands, the task joins the target scheduler in whatever State
// it reached during transit, and the target reschedules.
func (k *Kernel) migrateArrive(th *Thread, tgt *cpu, from int) {
	tcb := th.TCB
	th.migrating = false
	tcb.CPU = tgt.id
	k.charge(k.prof.IPI, &k.stats.IPICharge)
	tgt.met.Inc(metrics.IPIs)
	attach := tgt.sch.Attach(tcb)
	k.lockRunq(tgt.id, attach)
	k.charge(attach, &k.stats.SchedCharge)
	k.trAdd(traceKindMigrateDone, tcb.Name, fmt.Sprintf("from=cpu%d", from))
	k.reschedule()
}

// withExec runs fn with the executing-CPU context pinned to c,
// restoring the previous context after — for kernel entries made from
// outside an engine callback (tests, harness APIs).
func (k *Kernel) withExec(c *cpu, fn func()) {
	prev := k.exec
	k.exec = c
	fn()
	k.exec = prev
}

// isCurrent reports whether th is running on any CPU.
func (k *Kernel) isCurrent(th *Thread) bool {
	for _, c := range k.cpus {
		if c.current == th {
			return true
		}
	}
	return false
}

// migrationsInFlight counts tasks currently in transit (tests).
func (k *Kernel) migrationsInFlight() int {
	n := 0
	for _, th := range k.threads {
		if th.migrating {
			n++
		}
	}
	return n
}
