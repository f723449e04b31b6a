package kernel

import (
	"strings"
	"testing"

	"emeralds/internal/ipc"
	"emeralds/internal/metrics"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// newBooted builds a single-CPU kernel with an RM scheduler, the
// smallest harness the invariant tests need.
func newBooted(t *testing.T, specs ...task.Spec) *Kernel {
	t.Helper()
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, StandardSem: true})
	for _, s := range specs {
		k.AddTask(s)
	}
	boot(t, n)
	return k
}

// TestCheckInvariantsHealthy: a contended but correct run — semaphores,
// mailbox traffic, preemption — must audit clean at quiescence.
func TestCheckInvariantsHealthy(t *testing.T) {
	n, k := newNode(sim.Config{Policy: sim.PolicyRM, StandardSem: true})
	sem := k.NewSemaphore("m")
	mb := k.NewMailbox("mb", 1)
	k.AddTask(task.Spec{Name: "prod", Period: 4 * vtime.Millisecond,
		Prog: task.Program{
			task.Acquire(sem), task.Compute(300 * vtime.Microsecond), task.Release(sem),
			task.Send(mb, 1, 8),
		}})
	k.AddTask(task.Spec{Name: "cons", Period: 8 * vtime.Millisecond,
		Prog: task.Program{
			task.Recv(mb),
			task.Acquire(sem), task.Compute(1 * vtime.Millisecond), task.Release(sem),
		}})
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	if bad := k.CheckInvariants(); bad != nil {
		t.Fatalf("healthy run failed the audit:\n%s", strings.Join(bad, "\n"))
	}
}

// TestCheckInvariantsDetectsSkew: corrupting the kernel-wide release
// count against the per-task ones must be reported, proving the audit
// has teeth.
func TestCheckInvariantsDetectsSkew(t *testing.T) {
	k := newBooted(t, task.Spec{Name: "t0", Period: 5 * vtime.Millisecond, WCET: vtime.Millisecond})
	k.Run(20 * vtime.Millisecond)
	k.met.Add(metrics.Releases, 3)
	bad := k.CheckInvariants()
	found := false
	for _, m := range bad {
		if strings.Contains(m, "Releases") {
			found = true
		}
	}
	if !found {
		t.Fatalf("counter skew not detected; audit returned %v", bad)
	}
}

// TestCheckInvariantsDetectsLeakedLock: a mutex left owned by a retired
// job must be reported.
func TestCheckInvariantsDetectsLeakedLock(t *testing.T) {
	k := newBooted(t, task.Spec{Name: "t0", Period: 5 * vtime.Millisecond, WCET: vtime.Millisecond})
	sem := k.NewSemaphore("leak")
	// 22 ms lands between the job released at 20 ms retiring (21 ms) and
	// the next release (25 ms), so jobActive is genuinely false.
	k.Run(22 * vtime.Millisecond)
	k.sems[sem].owner = k.threads[0] // jobActive is false between jobs
	bad := k.CheckInvariants()
	found := false
	for _, m := range bad {
		if strings.Contains(m, "leaked lock") {
			found = true
		}
	}
	if !found {
		t.Fatalf("leaked lock not detected; audit returned %v", bad)
	}
}

// TestCheckInvariantsDetectsLostWakeup: a task left parked on a mailbox
// or virtual link although pump should have moved it on must be
// reported. Each fault is set up by hand on a booted node whose one
// task sits at its send op.
func TestCheckInvariantsDetectsLostWakeup(t *testing.T) {
	for _, tc := range []struct {
		name        string
		vlink, drop bool
		park        func(l *link, tcb *task.TCB)
		want        string
	}{
		{"mailbox receiver with mail", false, false, parkReceiverWithMail, "1 messages queued while 1 receivers blocked"},
		{"vlink receiver with mail", true, false, parkReceiverWithMail, "1 messages queued while 1 receivers blocked"},
		{"mailbox sender that fits", false, false, parkSender, "fit the head batch of 1 while 1 senders blocked"},
		{"vlink sender that fits", true, false, parkSender, "fit the head batch of 2 while 1 senders blocked"},
		{"sender on a drop-mode vlink", true, true, parkSender, "1 senders blocked on a drop-mode link"},
	} {
		n, k := newNode(sim.Config{Policy: sim.PolicyRM, StandardSem: true})
		send := task.Send(k.NewMailbox("q", 4), 1, 8)
		links := &k.mboxes
		if tc.vlink {
			send = task.VSend(k.NewVLink("q", 4, tc.drop), 1, 8, 2)
			links = &k.vlinks
		}
		th := k.AddTask(task.Spec{Name: "t0", Period: 5 * vtime.Millisecond, Prog: task.Program{send}})
		boot(t, n)
		if bad := k.CheckInvariants(); bad != nil {
			t.Fatalf("%s: audit failed before the fault: %v", tc.name, bad)
		}
		tc.park((*links)[0], th.TCB)
		bad := k.CheckInvariants()
		if len(bad) != 1 || !strings.Contains(bad[0], tc.want) {
			t.Errorf("%s: audit returned %q, want one finding containing %q", tc.name, bad, tc.want)
		}
	}
}

func parkReceiverWithMail(l *link, tcb *task.TCB) {
	l.q.Push(ipc.Msg{Val: 1, Size: 8})
	l.recvq.Add(tcb)
}

func parkSender(l *link, tcb *task.TCB) { l.sendq.Add(tcb) }
