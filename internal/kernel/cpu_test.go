package kernel

import (
	"encoding/json"
	"strings"
	"testing"

	"emeralds/internal/metrics"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// newMulticore builds an M-CPU EDF node under the given lock regime.
func newMulticore(m int, regime LockRegime) (*Node, *Kernel) {
	return newNode(sim.Config{Policy: sim.PolicyEDF, CPUs: m, Lock: regime.String()})
}

// TestMulticorePartitionAndRun boots two CPUs and checks the task set
// is split (affinity honored), both CPUs make progress, and merged
// metrics agree with the per-CPU shards.
func TestMulticorePartitionAndRun(t *testing.T) {
	n, k := newMulticore(2, LockPerCPU)
	a := k.AddTask(task.Spec{Name: "a", Period: 5 * vtime.Millisecond, Affinity: 1, Prog: task.Program{
		task.Compute(vtime.Millisecond)}})
	b := k.AddTask(task.Spec{Name: "b", Period: 5 * vtime.Millisecond, Affinity: 2, Prog: task.Program{
		task.Compute(vtime.Millisecond)}})
	c := k.AddTask(task.Spec{Name: "c", Period: 7 * vtime.Millisecond, Prog: task.Program{
		task.Compute(vtime.Millisecond)}})
	boot(t, n)
	if a.TCB.CPU != 0 || b.TCB.CPU != 1 {
		t.Fatalf("affinity ignored: a on cpu%d, b on cpu%d", a.TCB.CPU, b.TCB.CPU)
	}
	k.Run(100 * vtime.Millisecond)
	for _, th := range []*Thread{a, b, c} {
		if th.TCB.Completions == 0 {
			t.Errorf("task %s never completed", th.TCB.Name)
		}
	}
	if k.Stats().Misses != 0 {
		t.Errorf("unexpected misses: %d", k.Stats().Misses)
	}
	// Merged counters must equal the shard sum.
	var sum uint64
	for i := 0; i < k.NumCPUs(); i++ {
		sum += k.MetricsOn(i).Get(metrics.Completions)
	}
	if got := k.Metrics().Get(metrics.Completions); got != sum || got == 0 {
		t.Errorf("merged completions = %d, shard sum = %d", got, sum)
	}
}

// TestMigrateWhileBlockedOnSemaphore migrates a task that is blocked on
// a contended semaphore: the move must be legal (it holds nothing), the
// wakeup lands mid-transit without touching any run queue, and the task
// finishes its job on the target CPU. Migrating the holder instead must
// be refused.
func TestMigrateWhileBlockedOnSemaphore(t *testing.T) {
	n, k := newMulticore(2, LockPerCPU)
	sem := k.NewSemaphore("m")
	holder := k.AddTask(task.Spec{Name: "holder", Period: 50 * vtime.Millisecond, Affinity: 1, Prog: task.Program{
		task.Acquire(sem),
		task.Compute(5 * vtime.Millisecond),
		task.Release(sem),
	}})
	waiter := k.AddTask(task.Spec{Name: "waiter", Period: 50 * vtime.Millisecond, Deadline: 10 * vtime.Millisecond,
		Phase: vtime.Millisecond, Affinity: 1, Prog: task.Program{
			task.Acquire(sem),
			task.Compute(vtime.Millisecond),
			task.Release(sem),
		}})
	boot(t, n)
	// At t=2ms: holder (released at 0, deadline 50ms) owns the
	// semaphore; waiter (released at 1ms, deadline 11ms, so EDF
	// preempted holder) has run Acquire and blocked.
	k.Engine().At(vtime.Time(0).Add(2*vtime.Millisecond), "test:migrate", func() {
		if err := k.Migrate(holder, 1); err == nil || !strings.Contains(err.Error(), "holds") {
			t.Errorf("migrating the holder: err = %v, want holds-a-semaphore", err)
		}
		if waiter.TCB.State != task.Blocked {
			t.Fatalf("waiter state = %v at 2ms, want Blocked", waiter.TCB.State)
		}
		if err := k.Migrate(waiter, 1); err != nil {
			t.Fatalf("migrating blocked waiter: %v", err)
		}
		if k.migrationsInFlight() != 1 {
			t.Errorf("migrations in flight = %d, want 1", k.migrationsInFlight())
		}
	})
	k.Run(50 * vtime.Millisecond)
	if waiter.TCB.CPU != 1 {
		t.Errorf("waiter on cpu%d after migration, want 1", waiter.TCB.CPU)
	}
	if waiter.TCB.Completions == 0 {
		t.Error("waiter never completed after migrating while blocked")
	}
	if k.migrationsInFlight() != 0 {
		t.Error("migration never landed")
	}
	if got := k.Metrics().Get(metrics.Migrations); got != 1 {
		t.Errorf("migrations counter = %d, want 1", got)
	}
	if k.Stats().MigrationCharge == 0 {
		t.Error("migration cost was not charged")
	}
}

// TestDeferredMigrationCancelledByTeardown requests a migration
// mid-segment so it defers to the segment boundary, then lets the job
// end (as a deadline miss) at that boundary: the teardown must cancel
// the pending request, leaving the task resident and consistent.
func TestDeferredMigrationCancelledByTeardown(t *testing.T) {
	n, k := newMulticore(2, LockPerCPU)
	// 5ms of compute against a 3ms deadline: every completion is a miss.
	late := k.AddTask(task.Spec{Name: "late", Period: 20 * vtime.Millisecond, Deadline: 3 * vtime.Millisecond,
		Affinity: 1, Prog: task.Program{task.Compute(5 * vtime.Millisecond)}})
	boot(t, n)
	k.Engine().At(vtime.Time(0).Add(vtime.Millisecond), "test:migrate", func() {
		if err := k.Migrate(late, 1); err != nil {
			t.Fatalf("mid-segment migrate: %v", err)
		}
		// Mid-segment: deferred, not in transit.
		if k.migrationsInFlight() != 0 {
			t.Error("mid-segment migration did not defer")
		}
	})
	k.Run(50 * vtime.Millisecond)
	if late.TCB.Misses == 0 {
		t.Fatal("scenario produced no deadline miss")
	}
	if late.TCB.CPU != 0 {
		t.Errorf("task migrated to cpu%d, but job teardown should cancel the request", late.TCB.CPU)
	}
	if got := k.Metrics().Get(metrics.Migrations); got != 0 {
		t.Errorf("migrations counter = %d, want 0 (cancelled)", got)
	}
	if k.migrationsInFlight() != 0 {
		t.Error("stale in-flight migration after teardown")
	}
	if late.TCB.Completions < 2 {
		t.Errorf("completions = %d; later jobs must still run after the cancelled migration", late.TCB.Completions)
	}
}

// TestPinnedTaskNeverMigrates overloads a pinned task's CPU and checks
// it stays put: Migrate refuses, and the kernel never moves it on its
// own.
func TestPinnedTaskNeverMigrates(t *testing.T) {
	n, k := newMulticore(2, LockPerCPU)
	pinned := k.AddTask(task.Spec{Name: "pinned", Period: 10 * vtime.Millisecond, Affinity: 1, Pinned: true,
		Prog: task.Program{task.Compute(2 * vtime.Millisecond)}})
	// Overload CPU 0 so a load balancer would want to move "pinned".
	k.AddTask(task.Spec{Name: "hog", Period: 10 * vtime.Millisecond, Affinity: 1,
		Prog: task.Program{task.Compute(9 * vtime.Millisecond)}})
	k.AddTask(task.Spec{Name: "idlecpu", Period: 100 * vtime.Millisecond, Affinity: 2,
		Prog: task.Program{task.Compute(vtime.Millisecond)}})
	boot(t, n)
	if err := k.Migrate(pinned, 1); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Errorf("Migrate(pinned) = %v, want pinned error", err)
	}
	k.Run(200 * vtime.Millisecond)
	if pinned.TCB.CPU != 0 {
		t.Errorf("pinned task ended on cpu%d, want 0", pinned.TCB.CPU)
	}
	if got := k.Metrics().Get(metrics.Migrations); got != 0 {
		t.Errorf("migrations = %d under overload, want 0", got)
	}
	if k.Stats().Misses == 0 {
		t.Error("scenario was meant to overload cpu0 (no misses recorded)")
	}
}

// TestMigrateArgumentErrors covers the remaining refusals.
func TestMigrateArgumentErrors(t *testing.T) {
	sn, single := newEDFNode(nil)
	th := single.AddTask(task.Spec{Name: "t", Period: vtime.Millisecond, Prog: task.Program{task.Compute(vtime.Microsecond)}})
	boot(t, sn)
	if err := single.Migrate(th, 0); err == nil {
		t.Error("Migrate on a single-CPU kernel must fail")
	}

	n, k := newMulticore(2, LockPerCPU)
	a := k.AddTask(task.Spec{Name: "a", Period: 10 * vtime.Millisecond, Affinity: 1,
		Prog: task.Program{task.Compute(vtime.Millisecond)}})
	boot(t, n)
	if err := k.Migrate(a, 2); err == nil {
		t.Error("Migrate out of range must fail")
	}
	if err := k.Migrate(a, -1); err == nil {
		t.Error("Migrate to negative CPU must fail")
	}
	if err := k.Migrate(a, 0); err != nil {
		t.Errorf("Migrate to current CPU is a no-op, got %v", err)
	}
}

// TestRefusedBootKeepsPlacement: a second Boot is refused before it
// places the tasks, so a task that migrated stays stamped with the CPU
// whose queues hold it.
func TestRefusedBootKeepsPlacement(t *testing.T) {
	n, k := newMulticore(2, LockPerCPU)
	a := k.AddTask(task.Spec{Name: "a", Period: 10 * vtime.Millisecond, Affinity: 1,
		Prog: task.Program{task.Compute(vtime.Millisecond)}})
	boot(t, n)
	if err := k.Migrate(a, 1); err != nil {
		t.Fatal(err)
	}
	k.Run(20 * vtime.Millisecond)
	if a.TCB.CPU != 1 {
		t.Fatalf("a on cpu%d after migrating to cpu1", a.TCB.CPU)
	}
	if err := n.Boot(); err == nil {
		t.Fatal("second Boot succeeded")
	}
	if a.TCB.CPU != 1 {
		t.Errorf("refused Boot moved a to cpu%d", a.TCB.CPU)
	}
}

// TestLockRegimeOrdering runs one contended 2-CPU scenario under the
// three lock regimes and checks the charged lock time is ordered
// big ≥ per-queue ≥ per-CPU (= 0), while the workload outcome (job
// completions) is identical.
func TestLockRegimeOrdering(t *testing.T) {
	run := func(r LockRegime) (Stats, uint64) {
		n, k := newMulticore(2, r)
		sem := k.NewSemaphore("m")
		k.AddTask(task.Spec{Name: "a", Period: 5 * vtime.Millisecond, Affinity: 1, Prog: task.Program{
			task.Acquire(sem), task.Compute(vtime.Millisecond), task.Release(sem)}})
		k.AddTask(task.Spec{Name: "b", Period: 7 * vtime.Millisecond, Affinity: 2, Prog: task.Program{
			task.Acquire(sem), task.Compute(vtime.Millisecond), task.Release(sem)}})
		boot(t, n)
		k.Run(500 * vtime.Millisecond)
		return k.Stats(), k.Metrics().Get(metrics.LockContentions)
	}
	per, _ := run(LockPerCPU)
	queue, _ := run(LockPerQueue)
	big, bigCont := run(LockBig)
	// Per-CPU run queues are lock-free, but kernel objects (the shared
	// semaphore) still take their per-object lock in every regime.
	if per.LockCharge == 0 {
		t.Error("per-CPU regime charged no object-lock time in a sem scenario")
	}
	if queue.LockCharge <= per.LockCharge {
		t.Errorf("per-queue charge %v ≤ per-CPU %v; run-queue locks charge extra", queue.LockCharge, per.LockCharge)
	}
	if big.LockCharge < queue.LockCharge {
		t.Errorf("big lock charge %v < per-queue %v", big.LockCharge, queue.LockCharge)
	}
	if bigCont == 0 {
		t.Error("big kernel lock saw no contention in a cross-CPU scenario")
	}
	if per.Completions != queue.Completions || queue.Completions != big.Completions {
		t.Errorf("completions diverge across regimes: %d / %d / %d",
			per.Completions, queue.Completions, big.Completions)
	}
}

// TestShardMergeDeterministic runs an identical multicore scenario
// twice and requires byte-identical merged Diagnostics — the shard
// merge must not depend on map order, timing, or GOMAXPROCS.
func TestShardMergeDeterministic(t *testing.T) {
	run := func() []byte {
		n, k := newMulticore(4, LockPerQueue)
		sem := k.NewSemaphore("m")
		for _, s := range []task.Spec{
			{Name: "a", Period: 5 * vtime.Millisecond, Prog: task.Program{task.Acquire(sem), task.Compute(vtime.Millisecond), task.Release(sem)}},
			{Name: "b", Period: 7 * vtime.Millisecond, Prog: task.Program{task.Acquire(sem), task.Compute(2 * vtime.Millisecond), task.Release(sem)}},
			{Name: "c", Period: 11 * vtime.Millisecond, Prog: task.Program{task.Compute(3 * vtime.Millisecond)}},
			{Name: "d", Period: 13 * vtime.Millisecond, Prog: task.Program{task.Compute(vtime.Millisecond)}},
		} {
			k.AddTask(s)
		}
		boot(t, n)
		k.Run(200 * vtime.Millisecond)
		b, err := json.Marshal(k.Diagnostics())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Error("merged diagnostics differ between identical runs")
	}
}
