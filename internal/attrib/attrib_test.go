package attrib_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"emeralds/internal/attrib"
	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

// checkExact asserts the attribution invariant for every non-aborted
// activation: the four components sum to the measured response with
// zero residual, every component is non-negative, and the labeled
// intervals tile [ReleasedAt, EndAt] with no gaps or overlaps.
func checkExact(t *testing.T, an *attrib.Analysis, label string) (completed int) {
	t.Helper()
	for _, a := range an.Activations {
		if a.Aborted {
			continue
		}
		completed++
		if res := a.Residual(); res != 0 {
			t.Errorf("%s: %s activation %d: residual %v (resp=%v run=%v pre=%v blk=%v ovh=%v)",
				label, a.Task, a.Index, res, a.Response,
				a.Comp[attrib.Running], a.Comp[attrib.Preempted],
				a.Comp[attrib.Blocked], a.Comp[attrib.Overhead])
		}
		for c := attrib.Component(0); c < attrib.NumComponents; c++ {
			if a.Comp[c] < 0 {
				t.Errorf("%s: %s activation %d: negative %v component %v",
					label, a.Task, a.Index, c, a.Comp[c])
			}
		}
		at := a.ReleasedAt
		for i, iv := range a.Intervals() {
			if iv.From != at {
				t.Errorf("%s: %s activation %d: interval %d starts at %v, want %v (gap or overlap)",
					label, a.Task, a.Index, i, iv.From, at)
			}
			if iv.To.Before(iv.From) {
				t.Errorf("%s: %s activation %d: interval %d runs backwards (%v → %v)",
					label, a.Task, a.Index, i, iv.From, iv.To)
			}
			at = iv.To
		}
		if at != a.EndAt {
			t.Errorf("%s: %s activation %d: intervals end at %v, activation at %v",
				label, a.Task, a.Index, at, a.EndAt)
		}
	}
	return completed
}

// analyzeSystem runs a booted system for d and replays its trace.
func analyzeSystem(t *testing.T, sys *kernel.Node, d vtime.Duration) *attrib.Analysis {
	t.Helper()
	if err := sys.Boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	sys.Run(d)
	log := sys.Trace()
	if log.Dropped() != 0 {
		t.Fatalf("trace ring overflowed (%d dropped); enlarge TraceCapacity", log.Dropped())
	}
	an, err := attrib.Analyze(log.Events(), 0)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return an
}

// TestExactnessRandomWorkloads is the property test locking the
// tentpole invariant: across random contended workloads — mixed
// policies, semaphore schemes, critical sections, delays, events and
// mailboxes — every completed activation partitions exactly.
func TestExactnessRandomWorkloads(t *testing.T) {
	policies := []string{sim.PolicyCSD, sim.PolicyRM, sim.PolicyEDF, sim.PolicyRMHeap}
	var completed, blocked, preempted, missed int
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := sim.Config{
			Policy:        policies[seed%int64(len(policies))],
			StandardSem:   seed%2 == 0,
			TraceCapacity: 1 << 20,
		}
		sys := kernel.NewNode(cfg)
		nSems := 1 + rng.Intn(3)
		sems := make([]int, nSems)
		for i := range sems {
			sems[i] = sys.NewSemaphore(fmt.Sprintf("s%d", i))
		}
		ev := sys.NewEvent("ev")
		mbox := sys.NewMailbox("mb", 2)
		periods := []vtime.Duration{2 * vtime.Millisecond, 4 * vtime.Millisecond,
			5 * vtime.Millisecond, 8 * vtime.Millisecond, 10 * vtime.Millisecond, 20 * vtime.Millisecond}
		nTasks := 3 + rng.Intn(5)
		for i := 0; i < nTasks; i++ {
			period := periods[rng.Intn(len(periods))]
			var prog task.Program
			budget := period / vtime.Duration(2+rng.Intn(3)) // 1/2 … 1/4 of the period
			for budget > 0 {
				c := vtime.Duration(50+rng.Intn(400)) * vtime.Microsecond
				if c > budget {
					c = budget
				}
				budget -= c
				switch rng.Intn(6) {
				case 0, 1: // critical section on a shared semaphore
					s := sems[rng.Intn(nSems)]
					prog = append(prog, task.Acquire(s), task.Compute(c), task.Release(s))
				case 2: // short self-suspension
					prog = append(prog, task.Delay(vtime.Duration(20+rng.Intn(100))*vtime.Microsecond), task.Compute(c))
				case 3: // event ping-pong (signal side keeps waits bounded)
					if rng.Intn(2) == 0 {
						prog = append(prog, task.SignalEvent(ev), task.Compute(c))
					} else {
						prog = append(prog, task.Compute(c), task.SignalEvent(ev))
					}
				case 4: // mailbox traffic
					if rng.Intn(2) == 0 {
						prog = append(prog, task.Send(mbox, int64(i), 16), task.Compute(c))
					} else {
						prog = append(prog, task.Compute(c), task.Send(mbox, int64(i), 16))
					}
				default:
					prog = append(prog, task.Compute(c))
				}
			}
			sys.AddTask(task.Spec{
				Name:   fmt.Sprintf("t%d", i),
				Period: period,
				Phase:  vtime.Duration(rng.Intn(1000)) * vtime.Microsecond,
				Prog:   prog,
			})
		}
		an := analyzeSystem(t, sys, 60*vtime.Millisecond)
		completed += checkExact(t, an, fmt.Sprintf("seed %d", seed))
		for _, a := range an.Activations {
			if a.Comp[attrib.Blocked] > 0 {
				blocked++
			}
			if a.Comp[attrib.Preempted] > 0 {
				preempted++
			}
			if a.Missed {
				missed++
			}
		}
	}
	// The property must not hold vacuously: the workloads have to
	// exercise real contention.
	if completed < 400 {
		t.Errorf("only %d completed activations across all seeds", completed)
	}
	if blocked == 0 {
		t.Error("no activation ever blocked on a semaphore — property test lost its teeth")
	}
	if preempted == 0 {
		t.Error("no activation was ever preempted — property test lost its teeth")
	}
	t.Logf("activations=%d blocked=%d preempted=%d missed=%d", completed, blocked, preempted, missed)
}

// TestBlockedAttributionNamesHolder: a two-task mutex collision must
// charge the high-priority task's wait to the low-priority holder.
func TestBlockedAttributionNamesHolder(t *testing.T) {
	sys := kernel.NewNode(sim.Config{Policy: sim.PolicyRM, TraceCapacity: 1 << 16})
	m := sys.NewSemaphore("m")
	// low locks m at t=0 for 2ms; high releases at 0.5ms and collides.
	sys.AddTask(task.Spec{Name: "low", Period: 20 * vtime.Millisecond,
		Prog: task.Program{task.Acquire(m), task.Compute(2 * vtime.Millisecond), task.Release(m)}})
	sys.AddTask(task.Spec{Name: "high", Period: 10 * vtime.Millisecond, Phase: 500 * vtime.Microsecond,
		Prog: task.Program{task.Acquire(m), task.Compute(100 * vtime.Microsecond), task.Release(m)}})
	an := analyzeSystem(t, sys, 10*vtime.Millisecond)
	checkExact(t, an, "holder")
	var found bool
	for _, a := range an.Activations {
		if a.Task != "high" || a.Aborted {
			continue
		}
		if a.Comp[attrib.Blocked] == 0 {
			continue
		}
		found = true
		for _, iv := range a.Intervals() {
			if iv.Comp == attrib.Blocked && iv.Sem == "m" && iv.Culprit != "low" {
				t.Errorf("blocked interval charged to %q, want low", iv.Culprit)
			}
		}
	}
	if !found {
		t.Fatal("high never blocked on m; scenario broken")
	}
}

// TestPreemptedAttributionNamesPreemptor: ready-but-not-running time
// must be charged to the task occupying the CPU.
func TestPreemptedAttributionNamesPreemptor(t *testing.T) {
	sys := kernel.NewNode(sim.Config{Policy: sim.PolicyRM, TraceCapacity: 1 << 16})
	sys.AddTask(task.Spec{Name: "hog", Period: 5 * vtime.Millisecond, WCET: 2 * vtime.Millisecond})
	sys.AddTask(task.Spec{Name: "victim", Period: 20 * vtime.Millisecond, Phase: 100 * vtime.Microsecond,
		WCET: 4 * vtime.Millisecond})
	an := analyzeSystem(t, sys, 20*vtime.Millisecond)
	checkExact(t, an, "preempt")
	var pre vtime.Duration
	for _, a := range an.Activations {
		if a.Task != "victim" || a.Aborted {
			continue
		}
		for _, iv := range a.Intervals() {
			if iv.Comp == attrib.Preempted {
				if iv.Culprit != "hog" {
					t.Errorf("preempted interval charged to %q, want hog", iv.Culprit)
				}
				pre += iv.Dur()
			}
		}
	}
	if pre == 0 {
		t.Fatal("victim was never preempted; scenario broken")
	}
}

// TestMissRootCause: an overloaded fixed-priority workload must
// produce misses, and every miss report must name at least one culprit
// interval.
func TestMissRootCause(t *testing.T) {
	sys := kernel.NewNode(sim.Config{Policy: sim.PolicyRM, TraceCapacity: 1 << 18})
	sys.AddTask(task.Spec{Name: "fast", Period: 2 * vtime.Millisecond, WCET: 1200 * vtime.Microsecond})
	sys.AddTask(task.Spec{Name: "slow", Period: 10 * vtime.Millisecond, WCET: 5 * vtime.Millisecond})
	an := analyzeSystem(t, sys, 40*vtime.Millisecond)
	checkExact(t, an, "miss")
	rep := an.Report()
	if len(rep.Misses) == 0 {
		t.Fatal("overloaded workload produced no misses; scenario broken")
	}
	for _, m := range rep.Misses {
		if len(m.CriticalPath) == 0 {
			t.Errorf("miss of %s (index %d, cause %s) has no culprit intervals", m.Task, m.Index, m.Cause)
		}
		for _, ci := range m.CriticalPath {
			if ci.Culprit == "" {
				t.Errorf("miss of %s: culprit interval %v–%v has no culprit name", m.Task, ci.FromUs, ci.ToUs)
			}
		}
		if m.Cause == "latency" && m.LatenessUs <= 0 {
			t.Errorf("latency miss of %s reports non-positive lateness %v", m.Task, m.LatenessUs)
		}
	}
}

// TestInversionDetection: a counting semaphore (initial count > 1) has
// no single owner to boost, so priority inheritance does not apply.
// With both units held by low-priority tasks, a middle-priority task
// can run while a high-priority task waits — the classic unbounded
// inversion the detector must flag.
func TestInversionDetection(t *testing.T) {
	sys := kernel.NewNode(sim.Config{Policy: sim.PolicyRM, TraceCapacity: 1 << 16})
	r := sys.NewCountingSemaphore("r", 2)
	sys.AddTask(task.Spec{Name: "lo1", Period: 32 * vtime.Millisecond,
		Prog: task.Program{task.Acquire(r), task.Compute(6 * vtime.Millisecond), task.Release(r)}})
	sys.AddTask(task.Spec{Name: "lo2", Period: 16 * vtime.Millisecond, Phase: 100 * vtime.Microsecond,
		Prog: task.Program{task.Acquire(r), task.Compute(6 * vtime.Millisecond), task.Release(r)}})
	sys.AddTask(task.Spec{Name: "hi", Period: 4 * vtime.Millisecond, Phase: 500 * vtime.Microsecond,
		Prog: task.Program{task.Acquire(r), task.Compute(200 * vtime.Microsecond), task.Release(r)}})
	sys.AddTask(task.Spec{Name: "mid", Period: 8 * vtime.Millisecond, Phase: 1 * vtime.Millisecond,
		WCET: 2 * vtime.Millisecond})
	an := analyzeSystem(t, sys, 16*vtime.Millisecond)
	checkExact(t, an, "inversion")
	var hit bool
	for _, iv := range an.Inversions {
		if iv.Task == "hi" && iv.Runner == "mid" && iv.Sem == "r" {
			hit = true
			if iv.Dur() <= 0 {
				t.Errorf("inversion window has non-positive duration %v", iv.Dur())
			}
		}
	}
	if !hit {
		t.Fatalf("no hi/mid inversion window detected; got %+v", an.Inversions)
	}
}

// TestPriorityInheritancePreventsInversion: the same scenario on a
// priority-inheritance mutex must NOT flag inversions — the holder is
// boosted, so the middle-priority task cannot run during the wait.
func TestPriorityInheritancePreventsInversion(t *testing.T) {
	sys := kernel.NewNode(sim.Config{Policy: sim.PolicyRM, TraceCapacity: 1 << 16})
	r := sys.NewSemaphore("r")
	sys.AddTask(task.Spec{Name: "lo", Period: 16 * vtime.Millisecond,
		Prog: task.Program{task.Acquire(r), task.Compute(6 * vtime.Millisecond), task.Release(r)}})
	sys.AddTask(task.Spec{Name: "hi", Period: 4 * vtime.Millisecond, Phase: 500 * vtime.Microsecond,
		Prog: task.Program{task.Acquire(r), task.Compute(200 * vtime.Microsecond), task.Release(r)}})
	sys.AddTask(task.Spec{Name: "mid", Period: 8 * vtime.Millisecond, Phase: 1 * vtime.Millisecond,
		WCET: 2 * vtime.Millisecond})
	an := analyzeSystem(t, sys, 16*vtime.Millisecond)
	checkExact(t, an, "pi")
	for _, iv := range an.Inversions {
		if iv.Task == "hi" {
			t.Errorf("inversion flagged under priority inheritance: %+v", iv)
		}
	}
}

// TestReportDeterminism: the rendered report is a pure function of the
// trace.
func TestReportDeterminism(t *testing.T) {
	render := func() string {
		sys := kernel.NewNode(sim.Config{Policy: sim.PolicyRM, TraceCapacity: 1 << 18})
		m := sys.NewSemaphore("m")
		sys.AddTask(task.Spec{Name: "a", Period: 4 * vtime.Millisecond,
			Prog: task.Program{task.Acquire(m), task.Compute(1 * vtime.Millisecond), task.Release(m)}})
		sys.AddTask(task.Spec{Name: "b", Period: 8 * vtime.Millisecond, Phase: 200 * vtime.Microsecond,
			Prog: task.Program{task.Acquire(m), task.Compute(2 * vtime.Millisecond), task.Release(m)}})
		an := analyzeSystem(t, sys, 32*vtime.Millisecond)
		var sb strings.Builder
		an.Report().RenderText(&sb, "test")
		return sb.String()
	}
	first := render()
	for i := 0; i < 3; i++ {
		if got := render(); got != first {
			t.Fatalf("report rendering is not deterministic (run %d differs)", i+2)
		}
	}
}

// TestTruncatedTraceRefused: Analyze must refuse a trace that lost
// events to ring overflow instead of silently attributing a truncated
// window (the fuzz campaign's zero-residual oracle depends on seeing
// every release). The ring here is deliberately undersized for the
// horizon so the overflow is real, not synthesized.
func TestTruncatedTraceRefused(t *testing.T) {
	sys := kernel.NewNode(sim.Config{Policy: sim.PolicyRM, TraceCapacity: 8})
	sys.AddTask(task.Spec{Name: "t0", Period: 4 * vtime.Millisecond, WCET: 1 * vtime.Millisecond})
	if err := sys.Boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	sys.Run(100 * vtime.Millisecond)
	log := sys.Trace()
	if log.Dropped() == 0 {
		t.Fatal("ring did not overflow; the test needs a truncated trace")
	}
	an, err := attrib.Analyze(log.Events(), log.Dropped())
	if !errors.Is(err, attrib.ErrTruncated) {
		t.Fatalf("Analyze(truncated) = %v, %v; want ErrTruncated", an, err)
	}
	if !strings.Contains(fmt.Sprint(err), fmt.Sprint(log.Dropped())) {
		t.Errorf("error does not name the dropped count: %v", err)
	}
}

// TestNegativeCPURefused: an in-memory event naming a negative CPU is
// an error, not an index panic in the per-CPU replay state.
func TestNegativeCPURefused(t *testing.T) {
	events := []trace.Event{
		{At: 0, Kind: trace.Release, Task: "a"},
		{At: 1, Kind: trace.Dispatch, Task: "a", CPU: -1},
	}
	an, err := attrib.Analyze(events, 0)
	if err == nil || !strings.Contains(err.Error(), "event 1 ") {
		t.Fatalf("Analyze(cpu -1) = %v, %v; want an error naming event 1", an, err)
	}
}

// TestHugeCPUIDReplays: the replay interns CPU ids, so a raw trace that
// names CPU 2,000,000,000 costs one per-CPU slot, not a slate of two
// billion.
func TestHugeCPUIDReplays(t *testing.T) {
	raw := `{"schema": "emeralds.trace/v1", "total": 8, "dropped": 0, "events": [
		{"at": 0, "kind": "task-info", "task": "a", "detail": "prio=0 period=100 deadline=100", "cpu": 2000000000},
		{"at": 0, "kind": "release", "task": "a"},
		{"at": 0, "kind": "release", "task": "b"},
		{"at": 10, "kind": "dispatch", "task": "b", "cpu": 2000000000},
		{"at": 30, "kind": "preempt", "task": "b", "cpu": 2000000000},
		{"at": 30, "kind": "dispatch", "task": "a", "cpu": 2000000000},
		{"at": 40, "kind": "complete", "task": "a", "cpu": 2000000000},
		{"at": 40, "kind": "idle", "cpu": 2000000000}]}`
	events, dropped, err := trace.ParseJSON([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	an, err := attrib.Analyze(events, dropped)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Activations) != 2 || an.Activations[0].Task != "a" {
		t.Fatalf("activations %+v, want a's then b's", an.Activations)
	}
	want := []attrib.Interval{
		{From: 0, To: 10, Comp: attrib.Preempted, Culprit: "idle"},
		{From: 10, To: 30, Comp: attrib.Preempted, Culprit: "b"},
		{From: 30, To: 40, Comp: attrib.Running},
	}
	if got := an.Activations[0].Intervals(); !reflect.DeepEqual(got, want) {
		t.Errorf("a's intervals %+v, want %+v", got, want)
	}
}
