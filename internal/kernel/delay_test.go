package kernel

import (
	"reflect"
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/trace"
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

func TestSuspendResume(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	th := k.AddTask(task.Spec{Name: "victim", Period: 10 * vtime.Millisecond,
		WCET: 8 * vtime.Millisecond})
	boot(t, n)
	k.Engine().At(vtime.Time(2*vtime.Millisecond), "suspend", func() { k.Suspend(th) })
	k.Engine().At(vtime.Time(35*vtime.Millisecond), "resume", func() { k.Resume(th) })
	k.Run(100 * vtime.Millisecond)
	if !th.Suspended() == false && th.Suspended() {
		t.Error("still suspended")
	}
	// Releases at 10, 20, 30 fire while suspended; the resumed job is
	// still finishing its 6 remaining ms at the release of 40: four
	// overruns in total.
	if k.Stats().Overruns != 4 {
		t.Errorf("overruns = %d, want 4 lost releases", k.Stats().Overruns)
	}
	// After resume, the in-flight job finishes and later jobs run.
	if th.TCB.Completions < 6 {
		t.Errorf("completions = %d", th.TCB.Completions)
	}
	// Double suspend/resume are no-ops.
	k.Suspend(th)
	k.Suspend(th)
	k.Resume(th)
	k.Resume(th)
}

func TestSuspendAbsorbsWakeups(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	ev := k.NewEvent("E")
	th := k.AddTask(task.Spec{Name: "waiter", Period: 50 * vtime.Millisecond, Prog: task.Program{
		task.WaitEvent(ev),
		task.Compute(vtime.Millisecond),
	}})
	boot(t, n)
	k.Engine().At(vtime.Time(1*vtime.Millisecond), "suspend", func() { k.Suspend(th) })
	k.Engine().At(vtime.Time(2*vtime.Millisecond), "signal", func() { k.SignalEventISR(ev) })
	k.Engine().At(vtime.Time(10*vtime.Millisecond), "resume", func() { k.Resume(th) })
	k.Run(40 * vtime.Millisecond)
	// The signal landed during suspension; the thread must complete
	// only after the resume, not at the signal.
	if th.TCB.Completions != 1 {
		t.Errorf("completions = %d", th.TCB.Completions)
	}
	if th.TCB.MaxResp < 10*vtime.Millisecond {
		t.Errorf("resp = %v, woke during suspension", th.TCB.MaxResp)
	}
}

// eventsOf returns the trace events of kind for the named task.
func eventsOf(k *Kernel, kind trace.Kind, name string) []trace.Event {
	var out []trace.Event
	for _, e := range k.Trace().Events() {
		if e.Kind == kind && e.Task == name {
			out = append(out, e)
		}
	}
	return out
}

// TestResumeLeavesParkedSenderParked: a sender parked on a full
// mailbox, suspended and resumed before any receiver drains it, stays
// parked. Re-running its send would queue it on the mailbox twice, and
// the receiver's pump would then wake it twice.
func TestResumeLeavesParkedSenderParked(t *testing.T) {
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: costmodel.Zero(), StandardSem: true,
		TraceCapacity: 1 << 12})
	mb := k.NewMailbox("mb", 1)
	snd := k.AddTask(task.Spec{Name: "snd", Period: 50 * vtime.Millisecond, Prog: task.Program{
		task.Send(mb, 1, 8), task.Send(mb, 2, 8), task.Compute(vtime.Millisecond)}})
	k.AddTask(task.Spec{Name: "rcv", Period: 50 * vtime.Millisecond, Phase: 5 * vtime.Millisecond,
		Prog: task.Program{task.Recv(mb), task.Recv(mb)}})
	boot(t, n)
	k.Engine().At(vtime.Time(2*vtime.Millisecond), "suspend", func() { k.Suspend(snd) })
	k.Engine().At(vtime.Time(3*vtime.Millisecond), "resume", func() { k.Resume(snd) })
	k.Run(20 * vtime.Millisecond)
	if blocks := eventsOf(k, trace.BlockEv, "snd"); len(blocks) != 1 {
		t.Errorf("snd blocked %d times, want once (on the full mailbox): %v", len(blocks), blocks)
	}
	unblocks := eventsOf(k, trace.UnblockEv, "snd")
	if len(unblocks) != 1 || unblocks[0].At != vtime.Time(5*vtime.Millisecond) {
		t.Errorf("snd unblocked at %v, want once at 5ms when rcv drains the mailbox", unblocks)
	}
	if snd.TCB.Completions != 1 {
		t.Errorf("snd completed %d jobs, want 1", snd.TCB.Completions)
	}
	if msgs := k.Stats().MsgsSent; msgs != 2 {
		t.Errorf("%d messages sent, want 2", msgs)
	}
}

// TestResumeKeepsDelayRunning: a task suspended in the middle of a delay
// and resumed before the delay ends waits out the delay. Running it at
// the resume would let the stale delay timer wake it later out of
// whatever it blocked on next.
func TestResumeKeepsDelayRunning(t *testing.T) {
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: costmodel.Zero(), StandardSem: true,
		TraceCapacity: 1 << 12})
	mb := k.NewMailbox("mb", 1)
	th := k.AddTask(task.Spec{Name: "sleeper", Period: 50 * vtime.Millisecond, Prog: task.Program{
		task.Delay(10 * vtime.Millisecond), task.Recv(mb)}})
	boot(t, n)
	k.Engine().At(vtime.Time(1*vtime.Millisecond), "suspend", func() { k.Suspend(th) })
	k.Engine().At(vtime.Time(3*vtime.Millisecond), "resume", func() { k.Resume(th) })
	k.Run(20 * vtime.Millisecond)
	var got []vtime.Time
	for _, e := range eventsOf(k, trace.Dispatch, "sleeper") {
		got = append(got, e.At)
	}
	if want := []vtime.Time{0, vtime.Time(10 * vtime.Millisecond)}; !reflect.DeepEqual(got, want) {
		t.Errorf("sleeper dispatched at %v, want %v", got, want)
	}
	if parked := linkAt(k.mboxes, "mailbox", mb).recvq.Len(); parked != 1 {
		t.Errorf("sleeper parked on the mailbox %d times, want once", parked)
	}
}

// TestResumeAfterDelayExpired: a delay that expires while its task is
// suspended is a wakeup absorbed by the suspension, so Resume runs the
// task at once.
func TestResumeAfterDelayExpired(t *testing.T) {
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: costmodel.Zero(), StandardSem: true})
	th := k.AddTask(task.Spec{Name: "sleeper", Period: 50 * vtime.Millisecond, Prog: task.Program{
		task.Delay(2 * vtime.Millisecond), task.Compute(vtime.Millisecond)}})
	boot(t, n)
	k.Engine().At(vtime.Time(1*vtime.Millisecond), "suspend", func() { k.Suspend(th) })
	k.Engine().At(vtime.Time(5*vtime.Millisecond), "resume", func() { k.Resume(th) })
	k.Run(20 * vtime.Millisecond)
	if th.TCB.Completions != 1 || th.TCB.MaxResp != 6*vtime.Millisecond {
		t.Errorf("completions %d, response %v; want one job done at 6ms", th.TCB.Completions, th.TCB.MaxResp)
	}
}

// TestSuspendedWaiterGrantedStaysParked: a task suspended while blocked
// on a mutex is granted the mutex when its holder releases it, but runs
// only after Resume — the grant is a wakeup the suspension absorbs.
func TestSuspendedWaiterGrantedStaysParked(t *testing.T) {
	for _, standard := range []bool{true, false} {
		n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: costmodel.Zero(), StandardSem: standard,
			TraceCapacity: 1 << 12})
		m := k.NewSemaphore("m")
		k.AddTask(task.Spec{Name: "holder", Period: 50 * vtime.Millisecond, Prog: task.Program{
			task.Acquire(m), task.Compute(4 * vtime.Millisecond), task.Release(m)}})
		waiter := k.AddTask(task.Spec{Name: "waiter", Period: 40 * vtime.Millisecond, Phase: vtime.Millisecond,
			Prog: task.Program{task.Acquire(m), task.Compute(vtime.Millisecond), task.Release(m)}})
		boot(t, n)
		k.Engine().At(vtime.Time(2*vtime.Millisecond), "suspend", func() { k.Suspend(waiter) })
		k.Engine().At(vtime.Time(15*vtime.Millisecond), "resume", func() { k.Resume(waiter) })
		k.Run(10 * vtime.Millisecond)
		if grants := eventsOf(k, trace.SemGrant, "waiter"); len(grants) != 1 || grants[0].At != vtime.Time(4*vtime.Millisecond) {
			t.Errorf("standard=%v: waiter granted m at %v, want once at 4ms", standard, grants)
		}
		if waiter.TCB.Completions != 0 {
			t.Errorf("standard=%v: suspended waiter completed %d jobs before its resume", standard, waiter.TCB.Completions)
		}
		k.Run(30 * vtime.Millisecond)
		var got []vtime.Time
		for _, e := range eventsOf(k, trace.Dispatch, "waiter") {
			got = append(got, e.At)
		}
		if want := []vtime.Time{vtime.Time(vtime.Millisecond), vtime.Time(15 * vtime.Millisecond)}; !reflect.DeepEqual(got, want) {
			t.Errorf("standard=%v: waiter dispatched at %v, want %v", standard, got, want)
		}
		if waiter.TCB.Completions != 1 || waiter.TCB.MaxResp != 15*vtime.Millisecond {
			t.Errorf("standard=%v: completions %d, response %v; want one job done at 16ms",
				standard, waiter.TCB.Completions, waiter.TCB.MaxResp)
		}
	}
}

// TestSuspendedCondWaiterSignalledStaysParked: a task suspended while
// waiting on a condition variable takes its free mutex back when
// signalled, but runs only after Resume.
func TestSuspendedCondWaiterSignalledStaysParked(t *testing.T) {
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: costmodel.Zero(), StandardSem: true,
		TraceCapacity: 1 << 12})
	m := k.NewSemaphore("m")
	cv := k.NewCondVar("cv")
	waiter := k.AddTask(task.Spec{Name: "waiter", Period: 40 * vtime.Millisecond, Prog: task.Program{
		task.Acquire(m), task.CondWait(cv, m), task.Compute(vtime.Millisecond), task.Release(m)}})
	k.AddTask(task.Spec{Name: "signaller", Period: 50 * vtime.Millisecond, Phase: 3 * vtime.Millisecond,
		Prog: task.Program{task.CondSignal(cv)}})
	boot(t, n)
	k.Engine().At(vtime.Time(1*vtime.Millisecond), "suspend", func() { k.Suspend(waiter) })
	k.Engine().At(vtime.Time(15*vtime.Millisecond), "resume", func() { k.Resume(waiter) })
	k.Run(30 * vtime.Millisecond)
	if acq := eventsOf(k, trace.SemAcquire, "waiter"); len(acq) != 2 || acq[1].At != vtime.Time(3*vtime.Millisecond) {
		t.Errorf("waiter acquired m at %v, want at 0 and again at the 3ms signal", acq)
	}
	var got []vtime.Time
	for _, e := range eventsOf(k, trace.Dispatch, "waiter") {
		got = append(got, e.At)
	}
	if want := []vtime.Time{0, vtime.Time(15 * vtime.Millisecond)}; !reflect.DeepEqual(got, want) {
		t.Errorf("waiter dispatched at %v, want %v", got, want)
	}
	if waiter.TCB.Completions != 1 || waiter.TCB.MaxResp != 16*vtime.Millisecond {
		t.Errorf("completions %d, response %v; want one job done at 16ms", waiter.TCB.Completions, waiter.TCB.MaxResp)
	}
}

// TestSuspendedPreAcquirerStaysParked: a §6.3.1 pre-acquire thread,
// parked because a higher-priority task took the semaphore and then
// suspended, is not run by that task's release; it runs after Resume.
func TestSuspendedPreAcquirerStaysParked(t *testing.T) {
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: costmodel.Zero(), TraceCapacity: 1 << 12})
	s := k.NewSemaphore("S")
	d := task.Delay(vtime.Millisecond)
	d.Hint = s // as the parser would insert
	th := k.AddTask(task.Spec{Name: "t2", Period: 50 * vtime.Millisecond, Prog: task.Program{
		d, task.Compute(2 * vtime.Millisecond), task.Acquire(s), task.Compute(vtime.Millisecond), task.Release(s)}})
	k.AddTask(task.Spec{Name: "t0", Period: 40 * vtime.Millisecond, Phase: 1500 * vtime.Microsecond,
		Prog: task.Program{task.Acquire(s), task.Compute(vtime.Millisecond), task.Release(s)}})
	boot(t, n)
	k.Engine().At(vtime.Time(2*vtime.Millisecond), "suspend", func() { k.Suspend(th) })
	k.Engine().At(vtime.Time(15*vtime.Millisecond), "resume", func() { k.Resume(th) })
	k.Run(30 * vtime.Millisecond)
	var got []vtime.Time
	for _, e := range eventsOf(k, trace.Dispatch, "t2") {
		got = append(got, e.At)
	}
	want := []vtime.Time{0, vtime.Time(vtime.Millisecond), vtime.Time(15 * vtime.Millisecond)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("t2 dispatched at %v, want %v", got, want)
	}
	if th.TCB.Completions != 1 || th.TCB.MaxResp != 17500*vtime.Microsecond {
		t.Errorf("completions %d, response %v; want one job done at 17.5ms", th.TCB.Completions, th.TCB.MaxResp)
	}
}
