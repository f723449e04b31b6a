package kernel

import (
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// TestDeadlineMonotonicAssignment: with constrained deadlines, DM must
// rank the tight-deadline task above the short-period one — and that
// ordering is what saves its deadline in simulation.
func TestDeadlineMonotonicAssignment(t *testing.T) {
	prof := costmodel.Zero()
	run := func(dm bool) (uint64, uint64) {
		n, k := newNode(sim.Config{
			Policy:            sim.PolicyRM,
			Profile:           prof,
			StandardSem:       true,
			DeadlineMonotonic: dm,
		})
		short := k.AddTask(task.Spec{
			Name: "short-period", Period: 10 * vtime.Millisecond, WCET: 5 * vtime.Millisecond,
		})
		tight := k.AddTask(task.Spec{
			Name: "tight-deadline", Period: 50 * vtime.Millisecond,
			WCET: 3 * vtime.Millisecond, Deadline: 4 * vtime.Millisecond,
		})
		boot(t, n)
		k.Run(200 * vtime.Millisecond)
		return tight.TCB.Misses, short.TCB.Misses
	}
	rmTight, rmShort := run(false)
	if rmTight == 0 {
		t.Error("under RM the tight-deadline task should miss")
	}
	if rmShort != 0 {
		t.Errorf("short-period task missed %d under RM", rmShort)
	}
	dmTight, dmShort := run(true)
	if dmTight != 0 {
		t.Errorf("tight-deadline task missed %d under DM", dmTight)
	}
	if dmShort != 0 {
		t.Errorf("short-period task missed %d under DM", dmShort)
	}
}

// TestAblationKnobs: hint-only saves switches but pays reposition
// scans; placeholder-only pays both switches; full does neither.
func TestAblationKnobs(t *testing.T) {
	prof := costmodel.M68040()
	run := func(disableHints, disablePlaceholder bool) Stats {
		n, k := newNode(sim.Config{
			Policy:             sim.PolicyRM,
			Profile:            prof,
			DisableHints:       disableHints,
			DisablePlaceholder: disablePlaceholder,
		})
		sem := k.NewSemaphore("S")
		ev := k.NewEvent("E")
		wait := task.WaitEvent(ev)
		wait.Hint = sem
		k.AddTask(task.Spec{Name: "T2", Period: 20 * vtime.Millisecond, Prog: task.Program{
			wait,
			task.Acquire(sem),
			task.Compute(100 * vtime.Microsecond),
			task.Release(sem),
		}})
		k.AddTask(task.Spec{Name: "T1", Period: 20 * vtime.Millisecond, Phase: 500 * vtime.Microsecond, Prog: task.Program{
			task.Acquire(sem),
			task.Compute(vtime.Millisecond),
			task.SignalEvent(ev),
			task.Compute(vtime.Millisecond),
			task.Release(sem),
		}})
		boot(t, n)
		k.Run(200 * vtime.Millisecond)
		return k.Stats()
	}
	full := run(false, false)
	hintOnly := run(false, true)
	phOnly := run(true, false)
	if full.SavedSwitches == 0 || hintOnly.SavedSwitches == 0 {
		t.Error("hint-carrying builds must save switches")
	}
	if phOnly.SavedSwitches != 0 {
		t.Error("hint-ablated build must not save switches")
	}
	// The hint-only build pays the O(n) reposition for PI, so its
	// semaphore charge exceeds the full build's.
	if hintOnly.SemCharge <= full.SemCharge {
		t.Errorf("hint-only sem charge %v should exceed full %v",
			hintOnly.SemCharge, full.SemCharge)
	}
}

// TestRAMBudgetGatesBoot: a configuration that cannot fit the on-chip
// RAM (§2's constraint) is rejected at Boot rather than silently
// accepted.
func TestRAMBudgetGatesBoot(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{
		Policy:      sim.PolicyEDF,
		Profile:     prof,
		StandardSem: true,
		RAMBudget:   1024, // one TCB + stack already costs 608 bytes
	})
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond})
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond})
	if err := n.Boot(); err == nil {
		t.Error("over-budget configuration booted")
	}
}

// TestRAMAccountingTracksObjects: every kernel object shows up in the
// accountant.
func TestRAMAccountingTracksObjects(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true, RAMBudget: 64 * 1024})
	before := k.RAM().Used()
	k.NewSemaphore("s")
	k.NewEvent("e")
	k.NewCondVar("c")
	k.NewMailbox("m", 4)
	k.NewStateMessage("st", 3, 16)
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond})
	if k.RAM().Used() <= before {
		t.Error("objects not accounted")
	}
	if err := n.Boot(); err != nil {
		t.Fatalf("64 KB should fit a small system: %v", err)
	}
}
