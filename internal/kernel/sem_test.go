package kernel

import (
	"reflect"
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/sched"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

// critProg builds a job: compute pre, lock, compute crit, unlock.
func critProg(sem int, pre, crit vtime.Duration) task.Program {
	return task.Program{
		task.Compute(pre),
		task.Acquire(sem),
		task.Compute(crit),
		task.Release(sem),
	}
}

// TestMutualExclusion verifies from the trace that the semaphore never
// admits two holders: between any acquire/grant and the matching
// release no other task's acquire/grant of the same semaphore appears.
func TestMutualExclusion(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		prof := costmodel.M68040()
		n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: !optimized, TraceCapacity: 1 << 16})
		sem := k.NewSemaphore("m")
		k.AddTask(task.Spec{Name: "hi", Period: 5 * vtime.Millisecond, Prog: critProg(sem, 0, vtime.Millisecond)})
		k.AddTask(task.Spec{Name: "mid", Period: 8 * vtime.Millisecond, Prog: critProg(sem, 200*vtime.Microsecond, vtime.Millisecond)})
		k.AddTask(task.Spec{Name: "lo", Period: 13 * vtime.Millisecond, Prog: critProg(sem, 400*vtime.Microsecond, vtime.Millisecond)})
		boot(t, n)
		k.Run(500 * vtime.Millisecond)

		holder := ""
		for _, e := range k.Trace().Events() {
			switch e.Kind {
			case trace.SemAcquire, trace.SemGrant:
				if e.Detail == "m" {
					if holder != "" {
						t.Fatalf("optimized=%v: %s acquired while %s holds (at %v)", optimized, e.Task, holder, e.At)
					}
					holder = e.Task
				}
			case trace.SemRelease:
				if e.Detail == "m" {
					if holder != e.Task {
						t.Fatalf("optimized=%v: %s released a lock held by %q", optimized, e.Task, holder)
					}
					holder = ""
				}
			}
		}
		if k.Stats().SemContended == 0 {
			t.Errorf("optimized=%v: scenario produced no contention", optimized)
		}
	}
}

// TestPriorityInheritanceBoundsInversion reproduces the classic
// unbounded-inversion setup: lo holds the lock, hi blocks on it, mid
// (lock-free, CPU-hungry) would otherwise starve lo and with it hi.
// With PI, hi's response stays near lo's critical-section length.
func TestPriorityInheritanceBoundsInversion(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: prof})
	sem := k.NewSemaphore("m")
	hi := k.AddTask(task.Spec{
		Name: "hi", Period: 20 * vtime.Millisecond, Phase: vtime.Millisecond,
		Prog: critProg(sem, 0, vtime.Millisecond),
	})
	k.AddTask(task.Spec{
		Name: "mid", Period: 50 * vtime.Millisecond, Phase: vtime.Millisecond,
		WCET: 30 * vtime.Millisecond,
	})
	k.AddTask(task.Spec{
		Name: "lo", Period: 100 * vtime.Millisecond,
		Prog: critProg(sem, 0, 5*vtime.Millisecond),
	})
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	// hi blocks at ~1 ms on lo's lock (held until 5 ms). With PI, lo
	// runs through mid, so hi completes by ~6 ms — well inside 20 ms.
	if hi.TCB.Misses != 0 {
		t.Errorf("hi missed %d deadlines: priority inversion unbounded", hi.TCB.Misses)
	}
	if hi.TCB.MaxResp > 7*vtime.Millisecond {
		t.Errorf("hi max response %v, want bounded by lo's critical section", hi.TCB.MaxResp)
	}
}

// TestOptimizedSavesContextSwitch reproduces the §6.2 flow: the waiter
// is woken by an event while the lock is held; the optimized build does
// PI at the event and saves switch C₂.
func TestOptimizedSavesContextSwitch(t *testing.T) {
	run := func(optimized bool) Stats {
		prof := costmodel.M68040()
		n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: !optimized})
		sem := k.NewSemaphore("S")
		ev := k.NewEvent("E")
		wait := task.WaitEvent(ev)
		wait.Hint = sem
		k.AddTask(task.Spec{Name: "T2", Period: 20 * vtime.Millisecond, Prog: task.Program{
			task.Compute(100 * vtime.Microsecond),
			wait,
			task.Acquire(sem),
			task.Compute(100 * vtime.Microsecond),
			task.Release(sem),
		}})
		k.AddTask(task.Spec{Name: "T1", Period: 20 * vtime.Millisecond, Phase: 500 * vtime.Microsecond, Prog: task.Program{
			task.Acquire(sem),
			task.Compute(2 * vtime.Millisecond),
			task.SignalEvent(ev), // E arrives while S is held
			task.Compute(vtime.Millisecond),
			task.Release(sem),
		}})
		boot(t, n)
		k.Run(200 * vtime.Millisecond)
		return k.Stats()
	}
	std, opt := run(false), run(true)
	if opt.SavedSwitches == 0 {
		t.Fatal("optimized build saved nothing")
	}
	if opt.HintPIs == 0 {
		t.Error("no hint-time priority inheritances recorded")
	}
	if std.SavedSwitches != 0 {
		t.Error("standard build claims saved switches")
	}
	if opt.ContextSwitches >= std.ContextSwitches {
		t.Errorf("optimized switches %d not below standard %d",
			opt.ContextSwitches, std.ContextSwitches)
	}
	if opt.Misses != 0 || std.Misses != 0 {
		t.Errorf("misses: std=%d opt=%d", std.Misses, opt.Misses)
	}
}

// TestSchemesPreserveCompletionTimes is the §6.3.2 safety argument:
// "chunks of execution time are swapped between T1 and T2 without
// affecting the completion time of T2" — under the zero-cost profile,
// both schemes must produce identical job completion counts and
// response times (the optimized scheme differs only in overhead).
func TestSchemesPreserveCompletionTimes(t *testing.T) {
	type result struct {
		completions uint64
		maxResp     vtime.Duration
	}
	run := func(optimized bool) []result {
		prof := costmodel.Zero()
		n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: !optimized})
		sem := k.NewSemaphore("S")
		ev := k.NewEvent("E")
		wait := task.WaitEvent(ev)
		wait.Hint = sem
		k.AddTask(task.Spec{Name: "T2", Period: 10 * vtime.Millisecond, Prog: task.Program{
			task.Compute(100 * vtime.Microsecond),
			wait,
			task.Acquire(sem),
			task.Compute(500 * vtime.Microsecond),
			task.Release(sem),
		}})
		k.AddTask(task.Spec{Name: "T1", Period: 10 * vtime.Millisecond, Phase: 200 * vtime.Microsecond, Prog: task.Program{
			task.Acquire(sem),
			task.Compute(vtime.Millisecond),
			task.SignalEvent(ev),
			task.Compute(vtime.Millisecond),
			task.Release(sem),
		}})
		k.AddTask(task.Spec{Name: "Tx", Period: 10 * vtime.Millisecond, Phase: 300 * vtime.Microsecond,
			WCET: 2 * vtime.Millisecond})
		boot(t, n)
		k.Run(500 * vtime.Millisecond)
		var out []result
		for _, th := range k.Threads() {
			out = append(out, result{th.TCB.Completions, th.TCB.MaxResp})
		}
		return out
	}
	std, opt := run(false), run(true)
	for i := range std {
		if std[i] != opt[i] {
			t.Errorf("task %d: standard %+v vs optimized %+v", i, std[i], opt[i])
		}
	}
}

// TestThreeThreadPlaceholderCase exercises §6.2's complication: T1
// inherits from T2, then higher-priority T3 also blocks on the same
// semaphore; T3 becomes the new place-holder and T2 returns to its own
// slot.
func TestThreeThreadPlaceholderCase(t *testing.T) {
	prof := costmodel.M68040()
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: prof})
	sem := k.NewSemaphore("m")
	t3 := k.AddTask(task.Spec{Name: "T3", Period: 10 * vtime.Millisecond, Phase: 2 * vtime.Millisecond,
		Prog: critProg(sem, 0, 200*vtime.Microsecond)})
	t2 := k.AddTask(task.Spec{Name: "T2", Period: 20 * vtime.Millisecond, Phase: 1 * vtime.Millisecond,
		Prog: critProg(sem, 0, 200*vtime.Microsecond)})
	k.AddTask(task.Spec{Name: "T1", Period: 50 * vtime.Millisecond,
		Prog: critProg(sem, 0, 5*vtime.Millisecond)})
	// Padding so queue positions are distinguishable.
	for i := 0; i < 4; i++ {
		k.AddTask(task.Spec{Period: vtime.Duration(30+i) * vtime.Millisecond, Phase: 10 * vtime.Second,
			WCET: vtime.Microsecond})
	}
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	st := k.Stats()
	if st.Misses != 0 {
		t.Errorf("misses = %d", st.Misses)
	}
	if t3.TCB.Completions == 0 || t2.TCB.Completions == 0 {
		t.Error("waiters starved")
	}
	// The RM queue must be intact after all the swapping.
	rm := k.Scheduler().(*sched.RM)
	if err := rm.Queue().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Grants must have gone to the higher-priority waiter first: T3's
	// worst response must stay below T2's.
	if t3.TCB.MaxResp > t2.TCB.MaxResp+vtime.Millisecond {
		t.Errorf("T3 max resp %v vs T2 %v", t3.TCB.MaxResp, t2.TCB.MaxResp)
	}
}

// TestNestedLocksRestoreCorrectly: a holder of two locks must keep its
// boost from the still-held lock when releasing the other.
func TestNestedLocksRestoreCorrectly(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: prof})
	a := k.NewSemaphore("a")
	b := k.NewSemaphore("b")
	hiA := k.AddTask(task.Spec{Name: "hiA", Period: 20 * vtime.Millisecond, Phase: vtime.Millisecond,
		Prog: critProg(a, 0, 100*vtime.Microsecond)})
	hiB := k.AddTask(task.Spec{Name: "hiB", Period: 25 * vtime.Millisecond, Phase: vtime.Millisecond,
		Prog: critProg(b, 0, 100*vtime.Microsecond)})
	k.AddTask(task.Spec{Name: "mid", Period: 40 * vtime.Millisecond, Phase: 1500 * vtime.Microsecond,
		WCET: 10 * vtime.Millisecond})
	k.AddTask(task.Spec{Name: "lo", Period: 100 * vtime.Millisecond, Prog: task.Program{
		task.Acquire(a),
		task.Acquire(b),
		task.Compute(2 * vtime.Millisecond),
		task.Release(a), // release outer first: boost from b's waiter must survive
		task.Compute(2 * vtime.Millisecond),
		task.Release(b),
	}})
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	if hiA.TCB.Misses != 0 || hiB.TCB.Misses != 0 {
		t.Errorf("misses: hiA=%d hiB=%d", hiA.TCB.Misses, hiB.TCB.Misses)
	}
	// hiB blocks on b whose holder still computes 2 ms after releasing
	// a; with a correct restore the holder keeps hiB's priority and
	// mid cannot wedge in: hiB's response stays ≈ 4 ms.
	if hiB.TCB.MaxResp > 6*vtime.Millisecond {
		t.Errorf("hiB max resp %v: boost lost on partial release", hiB.TCB.MaxResp)
	}
}

// TestTransitivePriorityInheritance: T_hi blocks on S2 held by T_mid,
// which is blocked on S1 held by T_lo; T_lo must inherit T_hi's
// priority through the chain.
func TestTransitivePriorityInheritance(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: prof, StandardSem: true})
	s1 := k.NewSemaphore("s1")
	s2 := k.NewSemaphore("s2")
	hi := k.AddTask(task.Spec{Name: "hi", Period: 30 * vtime.Millisecond, Phase: 2 * vtime.Millisecond,
		Prog: critProg(s2, 0, 100*vtime.Microsecond)})
	k.AddTask(task.Spec{Name: "interferer", Period: 40 * vtime.Millisecond, Phase: 2500 * vtime.Microsecond,
		WCET: 20 * vtime.Millisecond})
	k.AddTask(task.Spec{Name: "mid", Period: 60 * vtime.Millisecond, Phase: vtime.Millisecond, Prog: task.Program{
		task.Acquire(s2),
		task.Acquire(s1), // blocks: lo holds s1
		task.Compute(100 * vtime.Microsecond),
		task.Release(s1),
		task.Release(s2),
	}})
	k.AddTask(task.Spec{Name: "lo", Period: 120 * vtime.Millisecond, Prog: task.Program{
		task.Acquire(s1),
		task.Compute(5 * vtime.Millisecond),
		task.Release(s1),
	}})
	boot(t, n)
	k.Run(120 * vtime.Millisecond)
	// Without transitive PI, "interferer" (higher priority than lo)
	// would run its 20 ms before lo finishes the 5 ms critical section,
	// pushing hi's response past 22 ms and its 30 ms... with chain PI
	// hi completes by ~6 ms.
	if hi.TCB.MaxResp > 8*vtime.Millisecond {
		t.Errorf("hi max resp = %v: transitive inheritance broken", hi.TCB.MaxResp)
	}
}

func TestReleaseOfUnheldSemaphoreIsFault(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	sem := k.NewSemaphore("m")
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, Prog: task.Program{
		task.Release(sem),
		task.Compute(vtime.Millisecond),
	}})
	boot(t, n)
	k.Run(25 * vtime.Millisecond)
	if k.Stats().Faults == 0 {
		t.Error("bogus release not flagged")
	}
	// The task must keep running regardless.
	if k.Threads()[0].TCB.Completions == 0 {
		t.Error("task wedged after bogus release")
	}
}

func TestCountingSemaphore(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	pool := k.NewCountingSemaphore("pool", 2)
	var resident [3]*Thread
	for i := 0; i < 3; i++ {
		resident[i] = k.AddTask(task.Spec{
			Name:   []string{"a", "b", "c"}[i],
			Period: 10 * vtime.Millisecond,
			Phase:  vtime.Duration(i) * 100 * vtime.Microsecond,
			Prog:   critProg(pool, 0, 3*vtime.Millisecond),
		})
	}
	boot(t, n)
	k.Run(50 * vtime.Millisecond)
	// Two tokens, three 3 ms holders per 10 ms: all must complete (the
	// third waits for a token, it doesn't deadlock).
	for _, th := range resident {
		if th.TCB.Completions == 0 {
			t.Errorf("%s never completed", th.TCB.Name)
		}
	}
}

func TestEventLatchesWhenNoWaiter(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	ev := k.NewEvent("e")
	waiter := k.AddTask(task.Spec{Name: "w", Period: 10 * vtime.Millisecond, Phase: vtime.Millisecond,
		Prog: task.Program{task.WaitEvent(ev), task.Compute(100 * vtime.Microsecond)}})
	k.AddTask(task.Spec{Name: "s", Period: 10 * vtime.Millisecond,
		Prog: task.Program{task.SignalEvent(ev)}})
	boot(t, n)
	k.Run(50 * vtime.Millisecond)
	// Signal fires at 0 with nobody waiting; the waiter at 1 ms must
	// consume the latched event without blocking forever.
	if waiter.TCB.Completions < 4 {
		t.Errorf("waiter completed %d jobs", waiter.TCB.Completions)
	}
}

func TestCondVarSignalAndBroadcast(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	m := k.NewSemaphore("m")
	cv := k.NewCondVar("cv")
	waitProg := task.Program{
		task.Acquire(m),
		task.CondWait(cv, m),
		task.Compute(100 * vtime.Microsecond), // must hold m again here
		task.Release(m),
	}
	w1 := k.AddTask(task.Spec{Name: "w1", Period: 20 * vtime.Millisecond, Prog: waitProg.Clone()})
	w2 := k.AddTask(task.Spec{Name: "w2", Period: 20 * vtime.Millisecond, Phase: 100 * vtime.Microsecond, Prog: waitProg.Clone()})
	k.AddTask(task.Spec{Name: "sig", Period: 20 * vtime.Millisecond, Phase: 5 * vtime.Millisecond,
		Prog: task.Program{
			task.Acquire(m),
			task.CondBroadcast(cv),
			task.Release(m),
		}})
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	if w1.TCB.Completions < 4 || w2.TCB.Completions < 4 {
		t.Errorf("completions: w1=%d w2=%d", w1.TCB.Completions, w2.TCB.Completions)
	}
	if k.Stats().Misses != 0 {
		t.Errorf("misses = %d", k.Stats().Misses)
	}
}

func TestCondWaitWithoutMutexIsFault(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	m := k.NewSemaphore("m")
	cv := k.NewCondVar("cv")
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, Prog: task.Program{
		task.CondWait(cv, m), // never acquired m
		task.Compute(vtime.Millisecond),
	}})
	boot(t, n)
	k.Run(25 * vtime.Millisecond)
	if k.Stats().Faults == 0 {
		t.Error("cond-wait without the mutex not flagged")
	}
}

// TestPreAcquireQueueReblocks exercises the §6.3.1 modification: a
// hinted thread woken while the semaphore is free joins the
// pre-acquire queue; when another thread locks the semaphore before it
// reaches acquire_sem, it is re-blocked and released with the
// semaphore.
func TestPreAcquireQueueReblocks(t *testing.T) {
	prof := costmodel.M68040()
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: prof})
	sem := k.NewSemaphore("S")
	ev := k.NewEvent("E")
	wait := task.WaitEvent(ev)
	wait.Hint = sem
	// T2: mid priority. Woken while S is free, but T1 (higher prio
	// here) grabs S before T2 reaches its acquire.
	t2 := k.AddTask(task.Spec{Name: "T2", Period: 50 * vtime.Millisecond, Prog: task.Program{
		wait,
		task.Compute(3 * vtime.Millisecond), // long runway before the acquire
		task.Acquire(sem),
		task.Compute(100 * vtime.Microsecond),
		task.Release(sem),
	}})
	// T1: higher priority (shorter period); preempts T2 during the
	// runway, locks S and blocks for its own event while holding it —
	// exactly Figure 9.
	ev2 := k.NewEvent("E2")
	t1 := k.AddTask(task.Spec{Name: "T1", Period: 30 * vtime.Millisecond, Phase: vtime.Millisecond, Prog: task.Program{
		task.Acquire(sem),
		task.WaitEvent(ev2),
		task.Compute(100 * vtime.Microsecond),
		task.Release(sem),
	}})
	boot(t, n)
	k.Engine().At(vtime.Time(500*vtime.Microsecond), "E", func() { k.SignalEventISR(ev) })
	k.Engine().At(vtime.Time(8*vtime.Millisecond), "E2", func() { k.SignalEventISR(ev2) })
	k.Run(25 * vtime.Millisecond)
	// T2 must have been re-blocked while T1 held S (no busy spin to
	// the acquire), then completed after T1's release.
	if t2.TCB.Completions == 0 || t1.TCB.Completions == 0 {
		t.Fatalf("completions: T1=%d T2=%d", t1.TCB.Completions, t2.TCB.Completions)
	}
	if k.Stats().Misses != 0 {
		t.Errorf("misses = %d", k.Stats().Misses)
	}
}

func TestSemIntrospection(t *testing.T) {
	prof := costmodel.Zero()
	_, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	sem := k.NewSemaphore("m")
	if k.semOwnerName(sem) != "" {
		t.Error("fresh semaphore has an owner")
	}
	if s := k.sem(sem); s.waiters.Len() != 0 || len(s.preAcq) != 0 || s.inh.Active {
		t.Error("fresh semaphore has state")
	}
}

// TestCondSignalWhileMutexHeld: a waiter signalled while a third task
// holds the mutex must be moved onto the mutex queue (with priority
// inheritance) rather than woken, and granted the lock at release.
func TestCondSignalWhileMutexHeld(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: prof})
	m := k.NewSemaphore("m")
	cv := k.NewCondVar("cv")
	waiter := k.AddTask(task.Spec{Name: "waiter", Period: 40 * vtime.Millisecond, Prog: task.Program{
		task.Acquire(m),
		task.CondWait(cv, m),
		task.Compute(100 * vtime.Microsecond), // requires m re-held
		task.Release(m),
	}})
	// Hog: lower priority, takes the mutex and signals the condvar
	// while still holding it — the waiter cannot wake yet.
	hog := k.AddTask(task.Spec{Name: "hog", Period: 40 * vtime.Millisecond, Phase: vtime.Millisecond, Prog: task.Program{
		task.Acquire(m),
		task.CondSignal(cv),
		task.Compute(2 * vtime.Millisecond),
		task.Release(m),
	}})
	boot(t, n)
	k.Run(160 * vtime.Millisecond)
	if waiter.TCB.Completions < 2 || hog.TCB.Completions < 1 {
		t.Errorf("completions: waiter=%d hog=%d", waiter.TCB.Completions, hog.TCB.Completions)
	}
	if k.Stats().Misses != 0 {
		t.Errorf("misses = %d", k.Stats().Misses)
	}
}

// TestCondSignalWithFreeMutex: a waiter signalled while its mutex is
// free takes the mutex back at the signal and runs on at once.
func TestCondSignalWithFreeMutex(t *testing.T) {
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: costmodel.Zero(), StandardSem: true,
		TraceCapacity: 1 << 12})
	m := k.NewSemaphore("m")
	cv := k.NewCondVar("cv")
	waiter := k.AddTask(task.Spec{Name: "waiter", Period: 40 * vtime.Millisecond, Prog: task.Program{
		task.Acquire(m), task.CondWait(cv, m), task.Compute(vtime.Millisecond), task.Release(m)}})
	k.AddTask(task.Spec{Name: "signaller", Period: 50 * vtime.Millisecond, Phase: 3 * vtime.Millisecond,
		Prog: task.Program{task.CondSignal(cv)}})
	boot(t, n)
	k.Run(30 * vtime.Millisecond)
	if acq := eventsOf(k, trace.SemAcquire, "waiter"); len(acq) != 2 || acq[1].At != vtime.Time(3*vtime.Millisecond) {
		t.Errorf("waiter acquired m at %v, want at 0 and again at the 3ms signal", acq)
	}
	var got []vtime.Time
	for _, e := range eventsOf(k, trace.Dispatch, "waiter") {
		got = append(got, e.At)
	}
	if want := []vtime.Time{0, vtime.Time(3 * vtime.Millisecond)}; !reflect.DeepEqual(got, want) {
		t.Errorf("waiter dispatched at %v, want %v", got, want)
	}
	if waiter.TCB.Completions != 1 || waiter.TCB.MaxResp != 4*vtime.Millisecond {
		t.Errorf("completions %d, response %v; want one job done at 4ms", waiter.TCB.Completions, waiter.TCB.MaxResp)
	}
}

// TestCondSignalNoWaiterIsNoop.
func TestCondSignalNoWaiterIsNoop(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	cv := k.NewCondVar("cv")
	th := k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, Prog: task.Program{
		task.CondSignal(cv),
		task.CondBroadcast(cv),
		task.Compute(vtime.Millisecond),
	}})
	boot(t, n)
	k.Run(25 * vtime.Millisecond)
	if th.TCB.Completions < 2 {
		t.Errorf("completions = %d", th.TCB.Completions)
	}
}

// TestJobCompletingInPreAcquireQueueLeavesIt: a hand-placed hint on a
// job's last op enrols the job in the §6.3.1 pre-acquire queue when its
// wait ends with the semaphore free. The job then completes without
// reaching an acquire, and completion must take it out of the queue.
func TestJobCompletingInPreAcquireQueueLeavesIt(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof})
	sem := k.NewSemaphore("S")
	ev := k.NewEvent("E")
	wait := task.WaitEvent(ev)
	wait.Hint = sem
	th := k.AddTask(task.Spec{Name: "hinted", Period: 20 * vtime.Millisecond, Prog: task.Program{wait}})
	// Runs from 1 ms to 3 ms under an earlier deadline, so the woken
	// job waits in the pre-acquire queue until 3 ms.
	k.AddTask(task.Spec{Name: "busy", Period: 10 * vtime.Millisecond, Phase: vtime.Millisecond,
		WCET: 2 * vtime.Millisecond})
	boot(t, n)
	k.Engine().At(vtime.Time(2*vtime.Millisecond), "E", func() { k.SignalEventISR(ev) })
	k.Run(2500 * vtime.Microsecond)
	if s := k.sem(sem); len(s.preAcq) != 1 || s.preAcq[0] != th || th.preAcq != s {
		t.Fatalf("woken job not in the pre-acquire queue: %v", s.preAcq)
	}
	k.Run(2500 * vtime.Microsecond)
	if th.TCB.Completions != 1 {
		t.Fatalf("hinted job completed %d times, want once", th.TCB.Completions)
	}
	if got := len(k.sem(sem).preAcq); got != 0 || th.preAcq != nil {
		t.Errorf("pre-acquire queue leaked %d entries", got)
	}
}

// TestAccessors: surface getters used by tools and examples.
func TestAccessors(t *testing.T) {
	prof := costmodel.M68040()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true, Name: "nodeX"})
	if k.Name() != "nodeX" || k.Profile() != prof || k.Trace() != nil {
		t.Error("accessors wrong")
	}
	th := k.AddTask(task.Spec{Name: "a", Period: 10 * vtime.Millisecond, WCET: 5 * vtime.Millisecond})
	if th.Name() != "a" {
		t.Error("thread name")
	}
	boot(t, n)
	k.Run(2 * vtime.Millisecond)
	if k.cpus[0].current != th {
		t.Errorf("current = %v", k.cpus[0].current)
	}
	if k.Stats().TotalOverhead() == 0 {
		t.Error("overhead accessor")
	}
	p := k.sem(k.NewSemaphore("s")).inh.SavedPrio
	_ = p
}

// TestGrantGoesToHighestPriorityWaiter: with several tasks queued on
// one semaphore, release must hand the lock to the highest-priority
// waiter, not FIFO.
func TestGrantGoesToHighestPriorityWaiter(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: prof})
	sem := k.NewSemaphore("m")
	// lo-prio waiter arrives first (phase 1 ms), hi-prio second (2 ms);
	// the holder releases at 5 ms.
	hi := k.AddTask(task.Spec{Name: "hi", Period: 40 * vtime.Millisecond, Phase: 2 * vtime.Millisecond,
		Prog: critProg(sem, 0, vtime.Millisecond)})
	loW := k.AddTask(task.Spec{Name: "loW", Period: 60 * vtime.Millisecond, Phase: vtime.Millisecond,
		Prog: critProg(sem, 0, vtime.Millisecond)})
	k.AddTask(task.Spec{Name: "holder", Period: 80 * vtime.Millisecond,
		Prog: critProg(sem, 0, 5*vtime.Millisecond)})
	boot(t, n)
	k.Run(30 * vtime.Millisecond)
	// hi must complete before loW despite arriving later.
	if hi.TCB.Completions != 1 || loW.TCB.Completions != 1 {
		t.Fatalf("completions: hi=%d loW=%d", hi.TCB.Completions, loW.TCB.Completions)
	}
	// hi got the lock at ~5 ms (resp ≈ 4 ms); loW after hi (resp ≈ 6 ms).
	if hi.TCB.MaxResp >= loW.TCB.MaxResp {
		t.Errorf("grant order wrong: hi resp %v, loW resp %v", hi.TCB.MaxResp, loW.TCB.MaxResp)
	}
}

// TestCSDCrossQueuePIInKernel: an FP-queue holder blocking a DP waiter
// must migrate into the waiter's queue for the inheritance window —
// otherwise CSD's queue-precedence rule would starve it behind other
// ready DP tasks (the cross-queue inversion of DESIGN.md §3.4).
func TestCSDCrossQueuePIInKernel(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{
		Policy:  sim.PolicyCSD,
		DPSizes: []int{2},
		Profile: prof,
	})
	sem := k.NewSemaphore("m")
	// DP tasks: the waiter and a CPU-hungry peer that would starve the
	// boosted FP holder if it stayed in the FP queue.
	waiter := k.AddTask(task.Spec{Name: "dp-waiter", Period: 10 * vtime.Millisecond, Phase: vtime.Millisecond,
		Prog: critProg(sem, 0, 500*vtime.Microsecond)})
	k.AddTask(task.Spec{Name: "dp-hungry", Period: 12 * vtime.Millisecond, Phase: vtime.Millisecond,
		WCET: 6 * vtime.Millisecond})
	// FP holder: grabs the lock at t=0 for 4 ms.
	k.AddTask(task.Spec{Name: "fp-holder", Period: 50 * vtime.Millisecond,
		Prog: critProg(sem, 0, 4*vtime.Millisecond)})
	boot(t, n)
	k.Run(50 * vtime.Millisecond)
	// Without migration the holder cannot run while dp-hungry is ready,
	// so the waiter's first job would finish only after ~7 ms+4 ms and
	// miss. With migration the holder finishes by ~5.5 ms and the
	// waiter meets its 10 ms deadline.
	if waiter.TCB.Misses != 0 {
		t.Errorf("dp-waiter missed %d: cross-queue inheritance broken", waiter.TCB.Misses)
	}
	if k.Stats().Misses != 0 {
		t.Errorf("total misses = %d", k.Stats().Misses)
	}
}

// TestJobEndingWithHeldLockForcesRelease: a job ending with unbalanced
// acquire/release must not leak the mutex.
func TestJobEndingWithHeldLockForcesRelease(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof})
	sem := k.NewSemaphore("m")
	// Buggy task: acquires, never releases.
	k.AddTask(task.Spec{Name: "buggy", Period: 20 * vtime.Millisecond, Prog: task.Program{
		task.Acquire(sem),
		task.Compute(vtime.Millisecond),
		// missing Release
	}})
	victim := k.AddTask(task.Spec{Name: "victim", Period: 20 * vtime.Millisecond, Phase: 5 * vtime.Millisecond,
		Prog: critProg(sem, 0, vtime.Millisecond)})
	boot(t, n)
	// Stop between buggy jobs (released at 80 ms, done by ~81 ms) so
	// the ownership check is not observing a job in flight.
	k.Run(95 * vtime.Millisecond)
	if k.Stats().Faults == 0 {
		t.Error("leaked lock not flagged")
	}
	if victim.TCB.Completions < 4 {
		t.Errorf("victim starved: %d completions — lock leaked", victim.TCB.Completions)
	}
	if k.semOwnerName(sem) == "buggy" {
		t.Error("buggy still owns the mutex after job end")
	}
}
