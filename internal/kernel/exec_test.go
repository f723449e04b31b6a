package kernel

import (
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/sched"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

// newNode builds a node from cfg and returns it with its kernel. The
// tests add tasks on the kernel directly, so programs skip the parser
// pass and keep any hints placed by hand.
func newNode(cfg sim.Config) (*Node, *Kernel) {
	n := NewNode(cfg)
	return n, n.Kernel()
}

// newEDFNode builds an EDF node with the optimized semaphore scheme;
// a nil prof means the zero-cost profile.
func newEDFNode(prof *costmodel.Profile) (*Node, *Kernel) {
	if prof == nil {
		prof = costmodel.Zero()
	}
	return newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof})
}

// newRMNode builds an RM node; a nil prof means the zero-cost profile.
func newRMNode(prof *costmodel.Profile, optimized bool) (*Node, *Kernel) {
	if prof == nil {
		prof = costmodel.Zero()
	}
	return newNode(sim.Config{Policy: sim.PolicyRM, Profile: prof, StandardSem: !optimized})
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

func boot(t *testing.T, n *Node) {
	t.Helper()
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodicExecutionExactTimes(t *testing.T) {
	n, k := newEDFNode(nil)
	th := k.AddTask(task.Spec{Name: "a", Period: 10 * vtime.Millisecond, WCET: 2 * vtime.Millisecond})
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	tcb := th.TCB
	if tcb.Releases != 11 { // t = 0, 10, …, 100 inclusive
		t.Errorf("releases = %d", tcb.Releases)
	}
	if tcb.Completions != 10 { // the job released at t=100 has no time to run
		t.Errorf("completions = %d", tcb.Completions)
	}
	// With zero overhead, every response is exactly the WCET.
	if tcb.MaxResp != 2*vtime.Millisecond || tcb.AvgResp() != 2*vtime.Millisecond {
		t.Errorf("responses: avg %v max %v", tcb.AvgResp(), tcb.MaxResp)
	}
	if tcb.Misses != 0 {
		t.Errorf("misses = %d", tcb.Misses)
	}
}

func TestPhaseDelaysFirstRelease(t *testing.T) {
	n, k := newEDFNode(nil)
	th := k.AddTask(task.Spec{
		Period: 10 * vtime.Millisecond,
		WCET:   vtime.Millisecond,
		Phase:  7 * vtime.Millisecond,
	})
	boot(t, n)
	k.Run(20 * vtime.Millisecond)
	if th.TCB.Releases != 2 { // at 7 ms and 17 ms
		t.Errorf("releases = %d", th.TCB.Releases)
	}
}

func TestPreemptionByShorterDeadline(t *testing.T) {
	n, k := newEDFNode(nil)
	long := k.AddTask(task.Spec{Name: "long", Period: 100 * vtime.Millisecond, WCET: 20 * vtime.Millisecond})
	short := k.AddTask(task.Spec{
		Name: "short", Period: 10 * vtime.Millisecond, WCET: 2 * vtime.Millisecond,
		Phase: 5 * vtime.Millisecond,
	})
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	if short.TCB.Misses != 0 {
		t.Errorf("short missed %d deadlines", short.TCB.Misses)
	}
	if short.TCB.MaxResp != 2*vtime.Millisecond {
		t.Errorf("short max resp = %v, must always preempt", short.TCB.MaxResp)
	}
	if long.TCB.Preemptions == 0 {
		t.Error("long was never preempted")
	}
	// Long still finishes: 20 ms work + 2 ms interference per 10 ms.
	if long.TCB.Completions != 1 {
		t.Errorf("long completions = %d", long.TCB.Completions)
	}
}

func TestUtilizationOneMeetsAllDeadlinesUnderEDF(t *testing.T) {
	n, k := newEDFNode(nil)
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: 5 * vtime.Millisecond})
	k.AddTask(task.Spec{Period: 20 * vtime.Millisecond, WCET: 10 * vtime.Millisecond})
	boot(t, n)
	k.Run(200 * vtime.Millisecond)
	st := k.Stats()
	if st.Misses != 0 {
		t.Errorf("misses = %d at U=1 under ideal EDF", st.Misses)
	}
	// The CPU must have been saturated: useful = horizon.
	if st.UsefulCompute != 200*vtime.Millisecond {
		t.Errorf("useful = %v", st.UsefulCompute)
	}
}

func TestOverloadCountsMissesAndOverruns(t *testing.T) {
	n, k := newEDFNode(nil)
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: 8 * vtime.Millisecond})
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: 8 * vtime.Millisecond})
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	st := k.Stats()
	if st.Misses == 0 {
		t.Error("overloaded system reported no misses")
	}
	if st.Overruns == 0 {
		t.Error("overloaded system reported no overruns")
	}
}

func TestDeadlineShorterThanPeriod(t *testing.T) {
	n, k := newEDFNode(nil)
	// Response is 5 ms; a 4 ms deadline must miss, a 6 ms one must not.
	tight := k.AddTask(task.Spec{
		Name: "tight", Period: 20 * vtime.Millisecond, WCET: 5 * vtime.Millisecond,
		Deadline: 4 * vtime.Millisecond,
	})
	boot(t, n)
	k.Run(40 * vtime.Millisecond)
	if tight.TCB.Misses != tight.TCB.Completions {
		t.Errorf("tight: %d misses of %d jobs", tight.TCB.Misses, tight.TCB.Completions)
	}
}

func TestSchedulerOverheadChargedAgainstRunningTask(t *testing.T) {
	prof := costmodel.M68040()
	n, k := newEDFNode(prof)
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: 2 * vtime.Millisecond})
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	st := k.Stats()
	if st.SchedCharge == 0 || st.TimerCharge == 0 || st.SwitchCharge == 0 {
		t.Errorf("charges: sched=%v timer=%v switch=%v", st.SchedCharge, st.TimerCharge, st.SwitchCharge)
	}
	// Overhead stretches responses beyond the pure WCET.
	th := k.Threads()[0]
	if th.TCB.MaxResp <= 2*vtime.Millisecond {
		t.Errorf("max resp %v should exceed the pure WCET", th.TCB.MaxResp)
	}
}

func TestAperiodicRelease(t *testing.T) {
	n, k := newEDFNode(nil)
	ap := k.AddTask(task.Spec{
		Name: "ap", Period: 0, Deadline: 5 * vtime.Millisecond,
		Prog: task.Program{task.Compute(vtime.Millisecond)},
	})
	boot(t, n)
	k.Engine().At(vtime.Time(3*vtime.Millisecond), "fire", func() { k.ReleaseAperiodic(ap) })
	k.Engine().At(vtime.Time(30*vtime.Millisecond), "fire", func() { k.ReleaseAperiodic(ap) })
	k.Run(50 * vtime.Millisecond)
	if ap.TCB.Completions != 2 {
		t.Errorf("completions = %d", ap.TCB.Completions)
	}
	if ap.TCB.Misses != 0 {
		t.Errorf("misses = %d", ap.TCB.Misses)
	}
}

func TestAperiodicDoubleReleaseIsOverrun(t *testing.T) {
	n, k := newEDFNode(nil)
	ap := k.AddTask(task.Spec{Period: 0, Prog: task.Program{task.Compute(10 * vtime.Millisecond)}})
	boot(t, n)
	k.Engine().At(1, "fire", func() { k.ReleaseAperiodic(ap) })
	k.Engine().At(2, "fire", func() { k.ReleaseAperiodic(ap) })
	k.Run(50 * vtime.Millisecond)
	if ap.TCB.Completions != 1 || k.Stats().Overruns != 1 {
		t.Errorf("completions=%d overruns=%d", ap.TCB.Completions, k.Stats().Overruns)
	}
}

func TestDeterministicTraces(t *testing.T) {
	run := func() []trace.Event {
		prof := costmodel.M68040()
		n, k := newNode(sim.Config{Policy: sim.PolicyCSD, DPSizes: []int{2}, Profile: prof, TraceCapacity: 1 << 14})
		sem := k.NewSemaphore("s")
		for i, p := range []float64{5, 7, 11, 23} {
			prog := task.Program{
				task.Compute(vtime.Micros(300 * float64(i+1))),
				task.Acquire(sem),
				task.Compute(vtime.Micros(100)),
				task.Release(sem),
			}
			k.AddTask(task.Spec{Period: vtime.Millis(p), Prog: prog})
		}
		boot(t, n)
		k.Run(200 * vtime.Millisecond)
		return k.Trace().Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBootErrors(t *testing.T) {
	_, k := newNode(sim.Config{})
	k.AddTask(task.Spec{Period: vtime.Millisecond, WCET: 100 * vtime.Microsecond})
	perCPU := sched.AssignCPUs([]*task.TCB{k.Threads()[0].TCB}, 1)
	if err := k.boot(nil, perCPU); err == nil {
		t.Error("boot without scheduler succeeded")
	}
	ss := []sched.Scheduler{sched.NewEDF(k.Profile())}
	if err := k.boot(ss, perCPU); err != nil {
		t.Fatal(err)
	}
	if err := k.boot(ss, perCPU); err == nil {
		t.Error("double boot succeeded")
	}
}

func TestAddTaskAfterBootPanics(t *testing.T) {
	n, k := newEDFNode(nil)
	boot(t, n)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	k.AddTask(task.Spec{Period: vtime.Millisecond})
}

func TestCSDKernelAppliesPartition(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyCSD, DPSizes: []int{2}, Profile: prof, StandardSem: true})
	a := k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond})
	b := k.AddTask(task.Spec{Period: 5 * vtime.Millisecond, WCET: vtime.Millisecond})
	c := k.AddTask(task.Spec{Period: 50 * vtime.Millisecond, WCET: vtime.Millisecond})
	boot(t, n)
	// RM order: b, a, c → DP={b,a}, FP={c}.
	if b.TCB.CSDQueue != 0 || a.TCB.CSDQueue != 0 || c.TCB.CSDQueue != 1 {
		t.Errorf("queues: a=%d b=%d c=%d", a.TCB.CSDQueue, b.TCB.CSDQueue, c.TCB.CSDQueue)
	}
	k.Run(100 * vtime.Millisecond)
	if k.Stats().Misses != 0 {
		t.Errorf("misses = %d", k.Stats().Misses)
	}
}

func TestIdleAccounting(t *testing.T) {
	n, k := newEDFNode(nil)
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond})
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	st := k.Stats()
	if st.UsefulCompute != 10*vtime.Millisecond {
		t.Errorf("useful = %v, want 10 ms of a 100 ms run", st.UsefulCompute)
	}
}

func TestExactBoundaryPreemptionCompletesJob(t *testing.T) {
	// τ0's job ends exactly when τ1 is released (zero-cost profile):
	// the boundary must complete τ0's job, not restart its last op.
	n, k := newEDFNode(nil)
	a := k.AddTask(task.Spec{Name: "a", Period: 4 * vtime.Millisecond, WCET: vtime.Millisecond})
	b := k.AddTask(task.Spec{Name: "b", Period: 8 * vtime.Millisecond, WCET: 3 * vtime.Millisecond})
	boot(t, n)
	k.Run(80 * vtime.Millisecond)
	// U = 0.25 + 0.375: everything fits exactly; b's job spans release
	// boundaries of a.
	if a.TCB.Misses+b.TCB.Misses != 0 {
		t.Errorf("misses: a=%d b=%d", a.TCB.Misses, b.TCB.Misses)
	}
	if a.TCB.Completions != 20 || b.TCB.Completions != 10 {
		t.Errorf("completions: a=%d b=%d", a.TCB.Completions, b.TCB.Completions)
	}
	if got := k.Stats().UsefulCompute; got != 50*vtime.Millisecond {
		t.Errorf("useful = %v, work must not be redone at exact boundaries", got)
	}
}

func TestRunUntilAndNow(t *testing.T) {
	n, k := newEDFNode(nil)
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond})
	boot(t, n)
	k.RunUntil(vtime.Time(25 * vtime.Millisecond))
	if k.Now() != vtime.Time(25*vtime.Millisecond) {
		t.Errorf("now = %v", k.Now())
	}
}
