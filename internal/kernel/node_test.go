package kernel_test

import (
	"strings"
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/kernel"
	"emeralds/internal/sched"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
	"emeralds/internal/workload"
)

func TestDefaultBuildIsCSD3Optimized(t *testing.T) {
	n := kernel.NewNode(sim.Config{})
	for _, s := range workload.Table2() {
		n.AddTask(s)
	}
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	if got := n.Kernel().Scheduler().Name(); got != "CSD-3" {
		t.Errorf("scheduler = %q", got)
	}
	n.Run(500 * vtime.Millisecond)
	if n.Stats().Misses != 0 {
		t.Errorf("misses = %d on the Table 2 workload", n.Stats().Misses)
	}
}

func TestPolicySelection(t *testing.T) {
	for _, pol := range []string{sim.PolicyEDF, sim.PolicyRM, sim.PolicyRMHeap, sim.PolicyFP, sim.PolicyCSD} {
		n := kernel.NewNode(sim.Config{Policy: pol})
		n.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond})
		if err := n.Boot(); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		n.Run(50 * vtime.Millisecond)
		if n.Stats().Completions == 0 {
			t.Errorf("%s: nothing ran", pol)
		}
	}
	n := kernel.NewNode(sim.Config{Policy: "bogus"})
	n.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond})
	if err := n.Boot(); err == nil {
		t.Error("bogus policy accepted")
	}
}

// TestFPSchedulesLikeRM runs the Table 2 workload with semaphore
// contention under RM (§5.1 sorted queue) and FP (bitmap queue) on a
// zero-cost profile: with no charged overhead the two policies resolve
// to the same (priority, ID) order, so every per-task outcome must be
// identical.
func TestFPSchedulesLikeRM(t *testing.T) {
	type outcome struct {
		releases, completions, misses, preemptions uint64
	}
	run := func(pol string) map[string]outcome {
		n := kernel.NewNode(sim.Config{Policy: pol, Profile: costmodel.Zero()})
		sem := n.NewSemaphore("S")
		for i, spec := range workload.Table2() {
			if i%2 == 0 && len(spec.Prog) == 0 && spec.WCET > 2*vtime.Microsecond {
				spec.Prog = task.Program{
					task.Acquire(sem),
					task.Compute(spec.WCET / 2),
					task.Release(sem),
					task.Compute(spec.WCET - spec.WCET/2),
				}
				spec.WCET = 0
			}
			n.AddTask(spec)
		}
		if err := n.Boot(); err != nil {
			t.Fatal(err)
		}
		n.Run(500 * vtime.Millisecond)
		out := map[string]outcome{}
		for _, th := range n.Kernel().Threads() {
			tcb := th.TCB
			out[tcb.Name] = outcome{tcb.Releases, tcb.Completions, tcb.Misses, tcb.Preemptions}
		}
		return out
	}
	rm, fp := run(sim.PolicyRM), run(sim.PolicyFP)
	for name, want := range rm {
		if got := fp[name]; got != want {
			t.Errorf("%s: fp outcome %+v, rm outcome %+v", name, got, want)
		}
	}
}

func TestAutoPartitionMatchesSearch(t *testing.T) {
	n := kernel.NewNode(sim.Config{Queues: 2})
	for _, s := range workload.Table2() {
		n.AddTask(s)
	}
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	// The §5.5.3 search puts τ1–τ5 in the DP queue.
	if got := n.Partition().DPSizes[0]; got != 5 {
		t.Errorf("auto partition = %v", n.Partition().DPSizes)
	}
}

func TestExplicitPartitionRespected(t *testing.T) {
	n := kernel.NewNode(sim.Config{DPSizes: []int{3, 2}})
	for _, s := range workload.Table2() {
		n.AddTask(s)
	}
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	if got := n.Partition(); got.DPSizes[0] != 3 || got.DPSizes[1] != 2 {
		t.Errorf("partition = %v", got.DPSizes)
	}
}

func TestOverloadFallsBackToAllDP(t *testing.T) {
	n := kernel.NewNode(sim.Config{})
	// Hopelessly overloaded: no partition passes the analysis.
	for i := 0; i < 4; i++ {
		n.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: 9 * vtime.Millisecond})
	}
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	if got := n.Partition().DPSizes[0]; got != 4 {
		t.Errorf("overload fallback = %v, want all tasks in DP1", n.Partition().DPSizes)
	}
}

func TestParserRunsAtAddTask(t *testing.T) {
	n := kernel.NewNode(sim.Config{})
	sem := n.NewSemaphore("m")
	ev := n.NewEvent("e")
	th := n.AddTask(task.Spec{Period: 10 * vtime.Millisecond, Prog: task.Program{
		task.WaitEvent(ev),
		task.Acquire(sem),
		task.Release(sem),
	}})
	if got := th.TCB.Spec.Prog[0].Hint; got != sem {
		t.Errorf("hint = %d, parser did not run", got)
	}
}

func TestReportContents(t *testing.T) {
	n := kernel.NewNode(sim.Config{TraceCapacity: 128})
	n.AddTask(task.Spec{Name: "pump", Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond})
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	n.Run(50 * vtime.Millisecond)
	rep := n.Report()
	for _, frag := range []string{"pump", "CSD-3", "switches=", "useful="} {
		if !strings.Contains(rep, frag) {
			t.Errorf("report missing %q:\n%s", frag, rep)
		}
	}
	if n.Trace() == nil {
		t.Error("trace should be enabled")
	}
	if n.Now() != vtime.Time(50*vtime.Millisecond) {
		t.Errorf("now = %v", n.Now())
	}
}

func TestEmptySystemBoots(t *testing.T) {
	n := kernel.NewNode(sim.Config{})
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	n.Run(10 * vtime.Millisecond)
}

func TestObjectCreationDelegates(t *testing.T) {
	n := kernel.NewNode(sim.Config{})
	if n.NewSemaphore("a") != 0 || n.NewSemaphore("b") != 1 {
		t.Error("semaphore ids")
	}
	if n.NewCountingSemaphore("c", 3) != 2 {
		t.Error("counting semaphore id")
	}
	if n.NewEvent("e") != 0 || n.NewCondVar("cv") != 0 ||
		n.NewMailbox("m", 4) != 0 || n.NewStateMessage("s", 3, 8) != 0 {
		t.Error("object ids")
	}
}

func TestStandardSemConfig(t *testing.T) {
	n := kernel.NewNode(sim.Config{StandardSem: true})
	sem := n.NewSemaphore("m")
	ev := n.NewEvent("e")
	wait := task.WaitEvent(ev)
	n.AddTask(task.Spec{Name: "w", Period: 10 * vtime.Millisecond, Prog: task.Program{
		wait, task.Acquire(sem), task.Release(sem),
	}})
	n.AddTask(task.Spec{Name: "s", Period: 10 * vtime.Millisecond, Phase: vtime.Millisecond, Prog: task.Program{
		task.Acquire(sem), task.SignalEvent(ev), task.Release(sem),
	}})
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	n.Run(100 * vtime.Millisecond)
	if n.Stats().SavedSwitches != 0 {
		t.Error("standard build must not save switches")
	}
}

func TestNodeDMAndRAMBudget(t *testing.T) {
	n := kernel.NewNode(sim.Config{DeadlineMonotonic: true, RAMBudget: 64 * 1024, TraceCapacity: 8})
	n.AddTask(task.Spec{Name: "tight", Period: 50 * vtime.Millisecond,
		WCET: 2 * vtime.Millisecond, Deadline: 5 * vtime.Millisecond})
	n.AddTask(task.Spec{Name: "fast", Period: 10 * vtime.Millisecond, WCET: 4 * vtime.Millisecond})
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	n.Run(100 * vtime.Millisecond)
	if n.Stats().Misses != 0 {
		t.Errorf("misses = %d under DM", n.Stats().Misses)
	}
	if !strings.Contains(n.Report(), "RAM") {
		t.Error("report missing RAM line")
	}

	tiny := kernel.NewNode(sim.Config{RAMBudget: 128})
	tiny.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond})
	if err := tiny.Boot(); err == nil {
		t.Error("128-byte budget booted")
	}
}

func TestRecordResponsesInReport(t *testing.T) {
	n := kernel.NewNode(sim.Config{RecordResponses: true})
	n.AddTask(task.Spec{Name: "pump", Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond})
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	n.Run(500 * vtime.Millisecond)
	th := n.Kernel().Threads()[0]
	h := th.Responses()
	if h == nil || h.Count() < 49 {
		t.Fatalf("histogram missing or short: %v", h)
	}
	if h.Quantile(0.99) < vtime.Millisecond {
		t.Errorf("p99 = %v, below the pure WCET", h.Quantile(0.99))
	}
	if !strings.Contains(n.Report(), "p99=") {
		t.Error("report missing quantiles")
	}
}

// TestOverrideSchedulerCount: overrides replace the policy switch one
// instance per CPU, and any other count is refused at Boot.
func TestOverrideSchedulerCount(t *testing.T) {
	prof := costmodel.Zero()
	for _, c := range []struct{ cpus, instances int }{{1, 2}, {2, 1}, {4, 3}} {
		n := kernel.NewNode(sim.Config{CPUs: c.cpus, Profile: prof})
		n.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond})
		ss := make([]sched.Scheduler, c.instances)
		for i := range ss {
			ss[i] = sched.NewEDF(prof)
		}
		n.OverrideScheduler(ss...)
		if err := n.Boot(); err == nil {
			t.Errorf("%d instances for %d CPUs accepted", c.instances, c.cpus)
		}
	}
	for _, m := range []int{1, 2} {
		n := kernel.NewNode(sim.Config{CPUs: m, Profile: prof})
		n.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond})
		n.AddTask(task.Spec{Period: 20 * vtime.Millisecond, WCET: vtime.Millisecond})
		ss := make([]sched.Scheduler, m)
		for i := range ss {
			ss[i] = sched.NewRM(prof)
		}
		n.OverrideScheduler(ss...)
		if err := n.Boot(); err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		if got := n.Kernel().Scheduler(); got != ss[0] {
			t.Errorf("M=%d: cpu0 runs %s, not the override", m, got.Name())
		}
		n.Run(50 * vtime.Millisecond)
		if n.Stats().Completions == 0 || n.Stats().Misses != 0 {
			t.Errorf("M=%d: completions=%d misses=%d", m, n.Stats().Completions, n.Stats().Misses)
		}
	}
}
