package kernel

import (
	"testing"

	"emeralds/internal/metrics"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// runContended boots a node from cfg with three tasks sharing a mutex,
// a mailbox and a state message, and runs it for 500 ms.
func runContended(t *testing.T, cfg sim.Config) *Kernel {
	t.Helper()
	n, k := newNode(cfg)
	sem := k.NewSemaphore("m")
	st := k.NewStateMessage("s", 3, 8)
	mbx := k.NewMailbox("mb", 2)
	k.AddTask(task.Spec{Name: "hi", Period: 5 * vtime.Millisecond, Prog: task.Program{
		task.Compute(100 * vtime.Microsecond),
		task.Acquire(sem),
		task.Compute(vtime.Millisecond),
		task.Release(sem),
		task.StateWrite(st, 1, 8),
	}})
	k.AddTask(task.Spec{Name: "mid", Period: 8 * vtime.Millisecond, Prog: task.Program{
		task.Acquire(sem),
		task.Compute(vtime.Millisecond),
		task.Release(sem),
		task.Send(mbx, 7, 8),
	}})
	k.AddTask(task.Spec{Name: "lo", Period: 13 * vtime.Millisecond, Prog: task.Program{
		task.Recv(mbx),
		task.StateRead(st),
		task.Compute(vtime.Millisecond),
	}})
	boot(t, n)
	k.Run(500 * vtime.Millisecond)
	return k
}

// TestMetricsWiring runs the contended scenario and checks that the
// scheduler- and IPC-owned counters fired and that Diagnostics carries
// the full counter block with both latency metrics.
func TestMetricsWiring(t *testing.T) {
	k := runContended(t, sim.Config{Policy: sim.PolicyCSD, DPSizes: []int{2}, RecordResponses: true})
	m := k.Metrics()
	// Dispatches include switches from idle; ContextSwitches only
	// switches away from a running task.
	if d, cs := m.Get(metrics.Dispatches), m.Get(metrics.ContextSwitches); d == 0 || d < cs {
		t.Errorf("dispatches = %d, context_switches = %d", d, cs)
	}
	// Scheduler- and IPC-owned counters must have been wired at Boot.
	if m.Get(metrics.SchedSelects) == 0 {
		t.Error("sched_selects not incremented — scheduler not instrumented at Boot")
	}
	if m.Get(metrics.SemBlocks) == 0 && m.Get(metrics.HintPIs) == 0 {
		t.Error("scenario produced no contention")
	}
	if m.Get(metrics.MailboxSends) == 0 || m.Get(metrics.MailboxRecvs) == 0 {
		t.Errorf("mailbox counters: sends=%d recvs=%d",
			m.Get(metrics.MailboxSends), m.Get(metrics.MailboxRecvs))
	}
	if m.Get(metrics.StateWrites) == 0 || m.Get(metrics.StateReads) == 0 {
		t.Errorf("state counters: writes=%d reads=%d",
			m.Get(metrics.StateWrites), m.Get(metrics.StateReads))
	}
	// Grants correspond to blocked waiters being handed the lock.
	if m.Get(metrics.SemGrants) == 0 {
		t.Error("no sem grants in a contended run")
	}

	// Blocking histograms recorded the waits, and Diagnostics carries
	// both latency metrics with the full counter block.
	d := k.Diagnostics()
	// A single-CPU run never touches the multicore counters, which are
	// omitted from the snapshot while zero.
	if len(d.Counters) != int(metrics.Migrations) {
		t.Fatalf("diagnostics has %d counters, want %d", len(d.Counters), metrics.Migrations)
	}
	var sawResp, sawBlock bool
	for _, ts := range d.Tasks {
		switch ts.Metric {
		case "response":
			sawResp = true
		case "blocking":
			sawBlock = true
			if ts.N == 0 || ts.MaxUs <= 0 {
				t.Errorf("blocking summary for %s is empty: %+v", ts.Task, ts)
			}
		}
	}
	if !sawResp || !sawBlock {
		t.Errorf("diagnostics tasks: response=%v blocking=%v, want both", sawResp, sawBlock)
	}
}

// TestStatsZeroAlloc pins that Stats, which the telemetry sampler calls
// every tick, sums the per-CPU shards without allocating, and that the
// sum covers every shard.
func TestStatsZeroAlloc(t *testing.T) {
	for _, cpus := range []int{1, 4} {
		k := runContended(t, sim.Config{Policy: sim.PolicyEDF, CPUs: cpus})
		var st Stats
		if allocs := testing.AllocsPerRun(100, func() { st = k.Stats() }); allocs != 0 {
			t.Errorf("M=%d: Stats allocates %.1f times per call", cpus, allocs)
		}
		var releases uint64
		for c := 0; c < k.NumCPUs(); c++ {
			releases += k.MetricsOn(c).Get(metrics.Releases)
		}
		if st.Releases == 0 || st.Releases != releases {
			t.Errorf("M=%d: Stats.Releases = %d, shard sum %d", cpus, st.Releases, releases)
		}
	}
}
