package kernel

import (
	"emeralds/internal/task"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

// This file adds the remaining classic task-control services of the
// commercial RTOSs the paper compares against (psOS, VxWorks — §1):
// bounded task delay (sleep) and task suspend/resume. Both integrate
// with the §6.2 hint machinery: a delay is a blocking call, so when it
// immediately precedes an acquire the parser-style hint applies and the
// wakeup can short-circuit into priority inheritance.

// doDelay handles task.OpDelay: block for the op's duration on the
// kernel's timer.
func (k *Kernel) doDelay(th *Thread, op task.Op) {
	th.TCB.PC++ // the delay completes by timeout; PC moves on now
	th.TCB.PendingHint = op.Hint
	th.delayGen++
	gen := th.delayGen
	th.TCB.State = task.Blocked
	k.blockTask(th.TCB)
	k.traceOccupancyEnd(th, trace.BlockEv, "delay")
	k.eng.After(op.Dur, "delay:"+th.TCB.Name, func() {
		k.exec = k.cpuOf(th)
		// The job may have been killed or superseded meanwhile.
		if th.delayGen != gen || th.TCB.State != task.Blocked {
			return
		}
		if th.suspended {
			// The delay expired under suspension; Resume will release
			// the thread.
			th.resumable = true
			return
		}
		k.charge(k.prof.TimerInterrupt, &k.stats.TimerCharge)
		if k.wakeup(th) {
			k.reschedule()
		}
	})
	k.reschedule()
}

// Suspend parks a thread until Resume (the taskSuspend/taskResume pair
// of the commercial kernels). A running thread is preempted; a blocked
// thread stays blocked and will not be woken until resumed. Periodic
// releases that fire while suspended are lost and counted as overruns.
func (k *Kernel) Suspend(th *Thread) {
	if th.suspended {
		return
	}
	k.exec = k.cpuOf(th)
	th.suspended = true
	th.resumable = th.TCB.State == task.Ready
	if th.TCB.State == task.Ready {
		th.TCB.State = task.Blocked
		k.blockTask(th.TCB)
		if th == k.exec.current && k.exec.seg != nil {
			// Mid-segment suspension: let reschedule emit the Preempt
			// (which carries the accumulated overhead and ends the
			// occupancy) before the ready→blocked transition, so trace
			// replay sees the events in causal order.
			k.reschedule()
			k.trAdd(trace.BlockEv, th.TCB.Name, "suspend")
			return
		}
		k.traceOccupancyEnd(th, trace.BlockEv, "suspend")
		k.reschedule()
	}
}

// Resume lifts a suspension. A job in flight becomes runnable again if
// it was ready when suspended or its wait ended meanwhile; a job still
// waiting (on a delay, event or message queue) stays parked until its
// wakeup. Without a job the thread waits for its next release.
func (k *Kernel) Resume(th *Thread) {
	if !th.suspended {
		return
	}
	k.exec = k.cpuOf(th)
	th.suspended = false
	resumable := th.resumable
	th.resumable = false
	if resumable && th.jobActive && th.TCB.State == task.Blocked && th.waitingSem == nil && th.reacquire == nil {
		th.TCB.State = task.Ready
		k.unblockTask(th.TCB)
		k.trAdd(trace.UnblockEv, th.TCB.Name, "resume")
		k.reschedule()
	}
}

// Suspended reports whether the thread is currently suspended.
func (th *Thread) Suspended() bool { return th.suspended }

// delayCharge is the CPU cost of arming the delay timer.
func (k *Kernel) delayCharge() vtime.Duration { return k.prof.Syscall }
