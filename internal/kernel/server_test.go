package kernel

import (
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

func TestPollingServerServesAperiodics(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: prof, StandardSem: true})
	ps := k.NewPollingServer("server", 10*vtime.Millisecond, 3*vtime.Millisecond)
	// Background periodic load.
	k.AddTask(task.Spec{Name: "bg", Period: 20 * vtime.Millisecond, WCET: 8 * vtime.Millisecond})
	boot(t, n)
	// A burst of three 1 ms requests at t = 2 ms.
	k.Engine().At(vtime.Time(2*vtime.Millisecond), "burst", func() {
		for i := 0; i < 3; i++ {
			if !ps.Submit(vtime.Millisecond) {
				t.Error("submit rejected")
			}
		}
	})
	k.Run(100 * vtime.Millisecond)
	if ps.Served != 3 {
		t.Fatalf("served = %d", ps.Served)
	}
	// Polling semantics: the burst waits for the release at 10 ms and
	// all three fit one 3 ms budget: responses ≈ 9–11 ms.
	if ps.MaxResp > 12*vtime.Millisecond {
		t.Errorf("max resp = %v", ps.MaxResp)
	}
	if ps.Pending() != 0 {
		t.Errorf("pending = %d", ps.Pending())
	}
}

func TestPollingServerBudgetLimitsService(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: prof, StandardSem: true})
	ps := k.NewPollingServer("server", 10*vtime.Millisecond, 2*vtime.Millisecond)
	boot(t, n)
	// A 5 ms request needs three server periods (2+2+1).
	k.Engine().At(vtime.Time(vtime.Millisecond), "req", func() { ps.Submit(5 * vtime.Millisecond) })
	k.Run(60 * vtime.Millisecond)
	if ps.Served != 1 {
		t.Fatalf("served = %d", ps.Served)
	}
	// Completion inside the third serving period: 10+2, 20+2, 30+1 →
	// finishes at ≈31 ms; response ≈30 ms.
	if ps.MaxResp < 28*vtime.Millisecond || ps.MaxResp > 32*vtime.Millisecond {
		t.Errorf("resp = %v, want ≈30 ms (budget-limited)", ps.MaxResp)
	}
	// Budget conservation: the server never consumed more than
	// budget × periods of CPU.
	if got := k.Stats().UsefulCompute; got != 5*vtime.Millisecond {
		t.Errorf("useful = %v", got)
	}
}

func TestPollingServerRejectsWhenFull(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: prof, StandardSem: true})
	ps := k.NewPollingServer("server", 10*vtime.Millisecond, vtime.Millisecond)
	boot(t, n)
	accepted := 0
	for i := 0; i < maxServerQueue+5; i++ {
		if ps.Submit(vtime.Millisecond) {
			accepted++
		}
	}
	if accepted != maxServerQueue {
		t.Errorf("accepted = %d", accepted)
	}
	if ps.Rejected != 5 {
		t.Errorf("rejected = %d", ps.Rejected)
	}
	if ps.Submit(0) {
		t.Error("zero-length request accepted")
	}
}

func TestPollingServerCoexistsWithHardTasks(t *testing.T) {
	// The server is just a periodic task: a CSD system with hard
	// periodic tasks plus the server must keep every hard deadline
	// while still bounding aperiodic response.
	prof := costmodel.M68040()
	n, k := newNode(sim.Config{
		Policy:      sim.PolicyCSD,
		DPSizes:     []int{2},
		Profile:     prof,
		StandardSem: true,
	})
	ps := k.NewPollingServer("server", 15*vtime.Millisecond, 2*vtime.Millisecond)
	hard1 := k.AddTask(task.Spec{Name: "hard1", Period: 5 * vtime.Millisecond, WCET: vtime.Millisecond})
	hard2 := k.AddTask(task.Spec{Name: "hard2", Period: 50 * vtime.Millisecond, WCET: 10 * vtime.Millisecond})
	boot(t, n)
	for i := 0; i < 10; i++ {
		at := vtime.Time(vtime.Duration(3+i*17) * vtime.Millisecond)
		k.Engine().At(at, "req", func() { ps.Submit(500 * vtime.Microsecond) })
	}
	k.Run(250 * vtime.Millisecond)
	if hard1.TCB.Misses+hard2.TCB.Misses != 0 {
		t.Errorf("hard misses: %d, %d", hard1.TCB.Misses, hard2.TCB.Misses)
	}
	if ps.Served != 10 {
		t.Errorf("served = %d of 10", ps.Served)
	}
	// Polling-server bound: ≤ 2 periods + service for short requests.
	if ps.MaxResp > 31*vtime.Millisecond {
		t.Errorf("aperiodic max resp = %v", ps.MaxResp)
	}
	if ps.AvgResp() == 0 || ps.AvgResp() > ps.MaxResp {
		t.Errorf("avg resp = %v", ps.AvgResp())
	}
}

func TestPollingServerAccessors(t *testing.T) {
	prof := costmodel.Zero()
	_, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: prof, StandardSem: true})
	ps := k.NewPollingServer("srv", 10*vtime.Millisecond, 20*vtime.Millisecond) // budget clamps to period
	if ps.Budget() != 10*vtime.Millisecond {
		t.Errorf("budget = %v, want clamped to the period", ps.Budget())
	}
	if ps.Thread() == nil || ps.Thread().Name() != "srv" {
		t.Error("thread accessor wrong")
	}
	if ps.Name() != "srv-marker" {
		t.Errorf("device name = %q", ps.Name())
	}
	if ps.AvgResp() != 0 {
		t.Error("avg resp before serving should be 0")
	}
}
