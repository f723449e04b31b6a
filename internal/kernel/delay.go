package kernel

import (
	"emeralds/internal/task"
	"emeralds/internal/trace"
)

// This file adds bounded task delay (sleep), a classic task-control
// service of the commercial RTOSs the paper compares against (psOS,
// VxWorks — §1). It integrates with the §6.2 hint machinery: a delay is
// a blocking call, so when it immediately precedes an acquire the
// parser-style hint applies and the wakeup can short-circuit into
// priority inheritance.

// doDelay handles task.OpDelay: block for the op's duration on the
// kernel's timer. Nothing else wakes a delayed thread, so the timer
// always finds it blocked in this delay.
func (k *Kernel) doDelay(th *Thread, op task.Op) {
	th.TCB.PC++ // the delay completes by timeout; PC moves on now
	th.TCB.PendingHint = op.Hint
	th.TCB.State = task.Blocked
	k.blockTask(th.TCB)
	k.traceOccupancyEnd(th, trace.BlockEv, "delay")
	k.eng.After(op.Dur, "delay:"+th.TCB.Name, func() {
		k.exec = k.cpuOf(th)
		k.charge(k.prof.TimerInterrupt, &k.stats.TimerCharge)
		if k.wakeup(th) {
			k.reschedule()
		}
	})
	k.reschedule()
}
