package kernel

import (
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

func TestDelayOp(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	th := k.AddTask(task.Spec{Name: "sleepy", Period: 20 * vtime.Millisecond, Prog: task.Program{
		task.Compute(vtime.Millisecond),
		task.Delay(5 * vtime.Millisecond),
		task.Compute(vtime.Millisecond),
	}})
	boot(t, n)
	k.Run(60 * vtime.Millisecond)
	if th.TCB.Completions != 3 {
		t.Errorf("completions = %d", th.TCB.Completions)
	}
	// Response = 1 ms compute + 5 ms delay + 1 ms compute.
	if th.TCB.MaxResp != 7*vtime.Millisecond {
		t.Errorf("max resp = %v, want exactly 7 ms", th.TCB.MaxResp)
	}
}

func TestDelayYieldsCPU(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	sleeper := k.AddTask(task.Spec{Name: "sleeper", Period: 20 * vtime.Millisecond, Prog: task.Program{
		task.Delay(10 * vtime.Millisecond),
	}})
	worker := k.AddTask(task.Spec{Name: "worker", Period: 20 * vtime.Millisecond,
		WCET: 8 * vtime.Millisecond})
	boot(t, n)
	k.Run(40 * vtime.Millisecond)
	// The worker (later deadline? same period — tie by id; sleeper runs
	// first, blocks immediately, worker gets the CPU during the delay.
	if worker.TCB.MaxResp > 9*vtime.Millisecond {
		t.Errorf("worker resp %v: delay did not yield the CPU", worker.TCB.MaxResp)
	}
	if sleeper.TCB.Misses != 0 {
		t.Errorf("sleeper missed %d", sleeper.TCB.Misses)
	}
}

// TestDelayHintSavesSwitch: a delay immediately preceding an acquire is
// a §6.2 hint carrier — waking from the delay while the lock is held
// performs PI without a context switch.
func TestDelayHintSavesSwitch(t *testing.T) {
	prof := costmodel.M68040()
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: prof})
	sem := k.NewSemaphore("S")
	d := task.Delay(2 * vtime.Millisecond)
	d.Hint = sem // as the parser would insert
	k.AddTask(task.Spec{Name: "T2", Period: 20 * vtime.Millisecond, Prog: task.Program{
		d,
		task.Acquire(sem),
		task.Compute(100 * vtime.Microsecond),
		task.Release(sem),
	}})
	k.AddTask(task.Spec{Name: "T1", Period: 20 * vtime.Millisecond, Phase: vtime.Millisecond, Prog: task.Program{
		task.Acquire(sem),
		task.Compute(4 * vtime.Millisecond), // holds S across T2's timeout
		task.Release(sem),
	}})
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	if k.Stats().SavedSwitches == 0 {
		t.Error("delay hint saved nothing")
	}
	if k.Stats().Misses != 0 {
		t.Errorf("misses = %d", k.Stats().Misses)
	}
}
