package kernel

import (
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// deadlockProg builds the classic opposite-order double-lock pattern.
func deadlockProg(first, second int, hold vtime.Duration) task.Program {
	return task.Program{
		task.Acquire(first),
		task.Compute(hold),
		task.Acquire(second),
		task.Compute(hold / 2),
		task.Release(second),
		task.Release(first),
	}
}

// TestICPPPreventsDeadlock: two tasks taking two locks in opposite
// order deadlock under plain priority inheritance (each ends up
// waiting for the other) but cannot under ICPP, because the first
// acquire raises the holder to both locks' ceiling — nobody who uses
// either lock can run until it finishes.
func TestICPPPreventsDeadlock(t *testing.T) {
	build := func(icpp bool) (*Node, *Kernel) {
		prof := costmodel.Zero()
		n, k := newNode(sim.Config{
			Policy:          sim.PolicyRM,
			Profile:         prof,
			StandardSem:     true,
			PriorityCeiling: icpp,
		})
		a := k.NewSemaphore("A")
		b := k.NewSemaphore("B")
		// "ab" (lower priority) takes A first; the higher-priority "ba"
		// preempts it mid-section, takes B, then wants A → under PI the
		// pair wedges on its first interaction. Under ICPP, "ab" runs
		// at both locks' ceiling from its first acquire, so "ba" cannot
		// preempt inside the critical section at all.
		k.AddTask(task.Spec{Name: "ab", Period: 25 * vtime.Millisecond,
			Prog: deadlockProg(a, b, vtime.Millisecond)})
		k.AddTask(task.Spec{Name: "ba", Period: 15 * vtime.Millisecond, Phase: 500 * vtime.Microsecond,
			Prog: deadlockProg(b, a, vtime.Millisecond)})
		return n, k
	}

	piN, pi := build(false)
	boot(t, piN)
	pi.Run(200 * vtime.Millisecond)
	if pi.Stats().Completions > 2 {
		t.Fatalf("PI build completed %d jobs — the scenario no longer deadlocks and proves nothing", pi.Stats().Completions)
	}

	icppN, icpp := build(true)
	boot(t, icppN)
	icpp.Run(200 * vtime.Millisecond)
	st := icpp.Stats()
	if st.Completions < 16 {
		t.Errorf("ICPP build completed only %d jobs", st.Completions)
	}
	if st.Misses != 0 {
		t.Errorf("ICPP misses = %d", st.Misses)
	}
}

// TestICPPCeilingsComputedFromPrograms.
func TestICPPCeilingsComputedFromPrograms(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: prof, StandardSem: true, PriorityCeiling: true})
	shared := k.NewSemaphore("shared")
	private := k.NewSemaphore("lo-only")
	cv := k.NewCondVar("cv")
	k.AddTask(task.Spec{Name: "hi", Period: 5 * vtime.Millisecond,
		Prog: critProg(shared, 0, 100*vtime.Microsecond)})
	k.AddTask(task.Spec{Name: "mid", Period: 10 * vtime.Millisecond, Prog: task.Program{
		task.Acquire(shared),
		task.CondWait(cv, shared),
		task.Release(shared),
	}})
	k.AddTask(task.Spec{Name: "lo", Period: 20 * vtime.Millisecond, Phase: vtime.Millisecond, Prog: task.Program{
		task.Acquire(private),
		task.Release(private),
		task.Acquire(shared),
		task.CondSignal(cv),
		task.Release(shared),
	}})
	boot(t, n)
	// shared is used by hi (prio 0): ceiling 0. private only by lo
	// (prio 2): ceiling 2.
	if got := k.SemCeiling(shared); got != 0 {
		t.Errorf("shared ceiling = %d", got)
	}
	if got := k.SemCeiling(private); got != 2 {
		t.Errorf("private ceiling = %d", got)
	}
}

// TestICPPBoostAndRestore: the holder runs at the ceiling inside the
// critical section and returns to base priority at release.
func TestICPPBoostAndRestore(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: prof, StandardSem: true, PriorityCeiling: true})
	sem := k.NewSemaphore("m")
	// hi uses the lock briefly; mid never uses it; lo holds it long.
	hi := k.AddTask(task.Spec{Name: "hi", Period: 20 * vtime.Millisecond, Phase: 2 * vtime.Millisecond,
		Prog: critProg(sem, 0, 100*vtime.Microsecond)})
	mid := k.AddTask(task.Spec{Name: "mid", Period: 30 * vtime.Millisecond, Phase: vtime.Millisecond,
		WCET: 5 * vtime.Millisecond})
	k.AddTask(task.Spec{Name: "lo", Period: 60 * vtime.Millisecond,
		Prog: critProg(sem, 0, 4*vtime.Millisecond)})
	boot(t, n)
	k.Run(60 * vtime.Millisecond)
	// With ICPP, lo is boosted to hi's priority from the instant it
	// locks m (t=0): mid (released at 1 ms) cannot preempt the critical
	// section, so hi blocks for at most the remainder of lo's 4 ms
	// section and completes by ~4.1 ms (response ≈ 2.1 ms).
	if hi.TCB.MaxResp > 3*vtime.Millisecond {
		t.Errorf("hi resp = %v: ceiling boost missing", hi.TCB.MaxResp)
	}
	// And mid *is* delayed behind the boosted critical section…
	if mid.TCB.MaxResp < 8*vtime.Millisecond {
		t.Errorf("mid resp = %v: lo never ran at the ceiling", mid.TCB.MaxResp)
	}
	// …but only while the lock is held: afterwards lo is back at base
	// priority (mid completes well before lo's remaining work would
	// allow otherwise).
	if mid.TCB.Misses != 0 || hi.TCB.Misses != 0 {
		t.Errorf("misses: hi=%d mid=%d", hi.TCB.Misses, mid.TCB.Misses)
	}
}

// TestICPPSingleBlockingBound: under ICPP a job is blocked by at most
// ONE lower-priority critical section, even when it takes several
// locks (PI would let it be blocked once per lock).
func TestICPPSingleBlockingBound(t *testing.T) {
	prof := costmodel.Zero()
	run := func(icpp bool) vtime.Duration {
		n, k := newNode(sim.Config{
			Policy:          sim.PolicyRM,
			Profile:         prof,
			StandardSem:     icpp,
			PriorityCeiling: icpp,
		})
		a := k.NewSemaphore("A")
		b := k.NewSemaphore("B")
		// hi locks A then B.
		hi := k.AddTask(task.Spec{Name: "hi", Period: 40 * vtime.Millisecond, Phase: 1500 * vtime.Microsecond,
			Prog: task.Program{
				task.Acquire(a),
				task.Compute(100 * vtime.Microsecond),
				task.Release(a),
				task.Acquire(b),
				task.Compute(100 * vtime.Microsecond),
				task.Release(b),
			}})
		// Two lower tasks: loA enters its A-section at t=0; the
		// middle-priority midB preempts it at 0.5 ms and enters its own
		// B-section. When hi arrives both sections are in progress —
		// under PI hi blocks once on each (boosting loA, then midB).
		// Under ICPP loA runs at hi's ceiling from t=0, midB never
		// preempts, and hi blocks exactly once.
		k.AddTask(task.Spec{Name: "midB", Period: 45 * vtime.Millisecond, Phase: 500 * vtime.Microsecond,
			Prog: critProg(b, 0, 3*vtime.Millisecond)})
		k.AddTask(task.Spec{Name: "loA", Period: 50 * vtime.Millisecond,
			Prog: critProg(a, 0, 3*vtime.Millisecond)})
		boot(t, n)
		k.Run(40 * vtime.Millisecond)
		return hi.TCB.MaxResp
	}
	pi := run(false)
	icpp := run(true)
	// PI: hi waits out loA's remaining section on A, then midB's
	// remaining section on B — two blockings. ICPP: one blocking
	// (loA's section), and B is untouched.
	if icpp >= pi {
		t.Errorf("ICPP response %v not below PI response %v", icpp, pi)
	}
	if icpp > 2500*vtime.Microsecond {
		t.Errorf("ICPP response %v: blocked more than once?", icpp)
	}
	if pi < 3*vtime.Millisecond {
		t.Errorf("PI response %v: scenario failed to double-block", pi)
	}
}
