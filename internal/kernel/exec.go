package kernel

import (
	"fmt"

	"emeralds/internal/metrics"
	"emeralds/internal/sched"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

// Execution model
//
// Each CPU executes one *segment* at a time: either a preemptible slice
// of an OpCompute, or a non-preemptible kernel operation (system calls
// run with a short critical section, as on the real hardware).
// Asynchronous kernel work — timer releases, unblocks caused by other
// threads, scheduler selections — is charged by *extending* the active
// segment: the running thread loses exactly that much CPU, which is how
// the paper's analysis accounts overhead too. When the CPU is idle the
// charge accrues in idleDebt and delays the start of the next segment.
//
// On a multicore kernel the M CPUs share one event clock (one engine);
// k.exec is the CPU whose event is being handled, pinned at the entry
// of every engine callback. Charges stretch the executing CPU's
// segment; a kernel operation that changes another CPU's run queue
// marks that CPU for an IPI-delivered reschedule, drained at the end of
// the local reschedule. With one CPU, exec is always cpus[0] and every
// multicore branch is dead — the classic kernel, bit for bit.

type segKind uint8

const (
	segCompute segKind = iota
	segKernelOp
)

// segment is one slice of execution on a CPU. Each cpu embeds a single
// reusable segment (cpu.segStore) — at most one segment is in flight
// per CPU, so the storage is recycled across ops and the hot loop
// allocates nothing. The segment itself is the completion event's
// sim.Target.
type segment struct {
	k           *Kernel
	c           *cpu
	th          *Thread
	kind        segKind
	op          task.Op
	startedAt   vtime.Time
	pure        vtime.Duration // useful duration at start
	injected    vtime.Duration // overhead injected since start
	ev          *sim.Event     // armed completion event
	preemptible bool
}

// Fire completes the segment: book its overhead into the occupancy
// accumulator, apply the op's effect, and continue the thread.
// Completion runs in the owning CPU's context. Everything needed is
// copied to locals before c.seg is cleared, because continuing the
// thread re-arms the same per-CPU segment storage.
func (s *segment) Fire(*sim.Event) {
	k, c := s.k, s.c
	k.exec = c
	// A compute segment delivers pure useful work and consumes only its
	// injected stretch; a kernel-op segment is overhead end to end.
	if s.kind == segCompute {
		c.ovAcc += s.injected
	} else {
		c.ovAcc += s.pure + s.injected
	}
	th, kind, op, pure := s.th, s.kind, s.op, s.pure
	c.seg = nil
	if kind == segCompute {
		k.stats.UsefulCompute += pure
		th.TCB.OpRemaining = 0
		th.TCB.PC++
	} else {
		k.accountOp(op, pure)
		k.performOp(th, op)
	}
	k.afterOp(th)
}

// trAdd records a trace event on the executing CPU.
func (k *Kernel) trAdd(kind trace.Kind, taskName, detail string) {
	k.tr.AddCPU(k.eng.Now(), kind, taskName, detail, k.exec.id)
}

// trAddDur records a trace event with a duration payload on the
// executing CPU.
func (k *Kernel) trAddDur(kind trace.Kind, taskName, detail string, dur vtime.Duration) {
	k.tr.AddDurCPU(k.eng.Now(), kind, taskName, detail, dur, k.exec.id)
}

// cpuOf returns the CPU whose scheduler owns the thread.
func (k *Kernel) cpuOf(th *Thread) *cpu { return k.cpus[th.TCB.CPU] }

// sched returns the scheduler instance that owns t.
func (k *Kernel) sched(t *task.TCB) sched.Scheduler { return k.cpus[t.CPU].sch }

// blockTask routes a Block to the owning CPU's scheduler and charges
// t_b on the executing CPU. A task in migration transit is in no
// scheduler's queues; its State flip is all that happens.
func (k *Kernel) blockTask(t *task.TCB) {
	if k.thOf(t).migrating {
		return
	}
	cost := k.sched(t).Block(t)
	k.lockRunq(t.CPU, cost)
	k.charge(cost, &k.stats.SchedCharge)
}

// unblockTask routes an Unblock to the owning CPU's scheduler, charges
// t_u on the executing CPU, and marks the owning CPU for an
// IPI-delivered reschedule when it is a different one.
func (k *Kernel) unblockTask(t *task.TCB) {
	if k.thOf(t).migrating {
		return
	}
	cost := k.sched(t).Unblock(t)
	k.lockRunq(t.CPU, cost)
	k.charge(cost, &k.stats.SchedCharge)
	if c := k.cpus[t.CPU]; c != k.exec {
		c.needResched = true
	}
}

// charge adds kernel overhead d: the executing CPU's active segment
// stretches by d; an idle CPU accrues the debt against its next
// segment. bucket, when non-nil, receives the amount for per-subsystem
// accounting.
func (k *Kernel) charge(d vtime.Duration, bucket *vtime.Duration) {
	if d < 0 {
		panic("kernel: negative charge")
	}
	if bucket != nil {
		*bucket += d
	}
	if d == 0 {
		return
	}
	if k.exec.seg != nil {
		k.exec.seg.injected += d
		k.rearmSegment()
		return
	}
	k.exec.idleDebt += d
}

// rearmSegment moves the executing CPU's segment completion to its
// stretched end. Retime gives the event the key a cancel and reschedule
// would, so simultaneous completions keep their order.
func (k *Kernel) rearmSegment() {
	s := k.exec.seg
	k.eng.Retime(s.ev, s.startedAt.Add(s.pure+s.injected))
}

// startSegment begins executing `pure` of work for th on the executing
// CPU, absorbing any idle debt. The op's effect applies at completion
// (segment.Fire).
func (k *Kernel) startSegment(th *Thread, kind segKind, op task.Op, pure vtime.Duration, preemptible bool) {
	c := k.exec
	extra := c.idleDebt
	c.idleDebt = 0
	// Field assignments, not a composite-literal copy: the struct copy
	// (duffcopy) showed up in the hot-loop profile.
	s := &c.segStore
	s.k, s.c, s.th = k, c, th
	s.kind, s.op = kind, op
	s.startedAt = k.eng.Now()
	s.pure, s.injected = pure, extra
	s.preemptible = preemptible
	s.ev = k.eng.Schedule(s.startedAt.Add(pure+extra), sim.ClassCompletion, th.segLbl, s)
	c.seg = s
}

// preemptSegment stops the executing CPU's active (preemptible)
// segment, saving the remaining compute time into the thread's TCB.
// detail names the preemptor in the trace event. It reports whether the
// boundary landed exactly on the thread's final op, completing its job.
func (k *Kernel) preemptSegment(detail string) bool {
	c := k.exec
	s := c.seg
	if s == nil {
		return false
	}
	if !s.preemptible {
		panic("kernel: preempting non-preemptible segment")
	}
	now := k.eng.Now()
	elapsed := now.Sub(s.startedAt)
	useful := elapsed - s.injected
	if useful < 0 {
		// Overhead injected during the segment has not fully elapsed:
		// the spill must still delay whoever runs next.
		c.idleDebt += -useful
		useful = 0
	}
	if useful > s.pure {
		useful = s.pure
	}
	// Whatever part of the segment's wall span was not useful compute
	// was consumed overhead; it belongs to the occupancy ending here.
	c.ovAcc += elapsed - useful
	k.stats.UsefulCompute += useful
	finished := false
	if useful == s.pure {
		// The preemption landed exactly on the op boundary (common
		// with a zero-cost profile): the op is complete, not restarted.
		s.th.TCB.OpRemaining = 0
		s.th.TCB.PC++
		finished = s.th.TCB.PC >= len(s.th.TCB.Spec.Prog)
	} else {
		s.th.TCB.OpRemaining = s.pure - useful
	}
	s.th.TCB.Preemptions++
	k.exec.met.Inc(metrics.Preemptions)
	k.eng.Cancel(s.ev)
	c.seg = nil
	// A preemption always ends the occupancy: attach its consumed
	// overhead so replay can partition the span exactly.
	k.trAddDur(trace.Preempt, s.th.TCB.Name, detail, c.ovAcc)
	c.ovAcc = 0
	return finished
}

// traceOccupancyEnd emits the trace event of a thread blocking in an
// op handler. Op handlers run at segment end for the thread current on
// the executing CPU, so the event ends its occupancy and carries the
// overhead consumed since dispatch.
func (k *Kernel) traceOccupancyEnd(th *Thread, kind trace.Kind, detail string) {
	k.trAddDur(kind, th.TCB.Name, detail, k.exec.ovAcc)
	k.exec.ovAcc = 0
}

// reschedule reschedules the executing CPU, then serves any cross-CPU
// reschedule marks left by remote wakeups — each delivered as a
// cost-charged IPI on its target CPU, in CPU order for determinism.
func (k *Kernel) reschedule() {
	k.resched()
	if len(k.cpus) == 1 || k.draining {
		return
	}
	k.draining = true
	home := k.exec
	for again := true; again; {
		again = false
		for _, c := range k.cpus {
			if !c.needResched {
				continue
			}
			c.needResched = false
			again = true
			k.exec = c
			k.charge(k.prof.IPI, &k.stats.IPICharge)
			c.met.Inc(metrics.IPIs)
			k.resched()
		}
	}
	k.exec = home
	k.draining = false
}

// resched asks the executing CPU's policy for the best ready task and
// switches to it if it differs from the running one. Non-preemptible
// segments defer the switch to their completion.
func (k *Kernel) resched() {
	c := k.exec
	if c.seg != nil && !c.seg.preemptible {
		c.reschedPending = true
		return
	}
	c.reschedPending = false
	next, ts := c.sch.Select()
	k.lockRunq(c.id, ts)
	k.charge(ts, &k.stats.SchedCharge)
	var curTCB *task.TCB
	if c.current != nil {
		curTCB = c.current.TCB
	}
	if next == curTCB {
		return
	}
	// In both preemption branches the thread losing the CPU is still
	// ready, so Select found a thread to run: next is not nil there.
	if c.seg != nil {
		th := c.seg.th
		if k.preemptSegment(k.thOf(next).forLbl) {
			// The boundary completed the job; completeJob records it at
			// the true retire instant and runs its own reschedule.
			k.completeJob(th)
			return
		}
	} else if c.current != nil && curTCB.State == task.Ready {
		// Segment-boundary displacement: an op handler woke a
		// higher-priority task (sem grant, signal, message) and the
		// still-ready current thread loses the CPU with no segment in
		// flight. This ends its occupancy just as a mid-segment
		// preemption would, so emit the Preempt with the consumed
		// overhead attached — otherwise replay cannot close the span
		// and the leftover ovAcc would pollute the next occupancy.
		k.trAddDur(trace.Preempt, curTCB.Name, k.thOf(next).forLbl, c.ovAcc)
		c.ovAcc = 0
	}
	if next == nil {
		c.noteIdle(k.eng.Now())
		c.current = nil
		k.trAdd(trace.Idle, "-", "")
		return
	}
	c.met.Inc(metrics.Dispatches)
	if curTCB != nil {
		c.met.Inc(metrics.ContextSwitches)
	}
	k.charge(k.prof.ContextSwitch, &k.stats.SwitchCharge)
	c.noteBusy(k.eng.Now())
	c.current = k.thOf(next)
	k.trAdd(trace.Dispatch, next.Name, "")
	k.continueThread(c.current)
}

// continueThread starts the thread's next op segment. The thread must
// be current on the executing CPU and Ready.
func (k *Kernel) continueThread(th *Thread) {
	tcb := th.TCB
	prog := tcb.Spec.Prog
	if tcb.PC >= len(prog) {
		k.completeJob(th)
		return
	}
	op := prog[tcb.PC]
	if op.Kind == task.OpCompute {
		pure := op.Dur
		if tcb.OpRemaining > 0 {
			pure = tcb.OpRemaining
		}
		k.startSegment(th, segCompute, op, pure, true)
		return
	}
	k.startSegment(th, segKernelOp, op, k.opCharge(op), false)
}

// afterOp runs after any op segment completes: honor deferred
// reschedules and segment-boundary migrations, then continue the
// thread if it is still the one to run.
func (k *Kernel) afterOp(th *Thread) {
	if k.exec.reschedPending {
		k.reschedule()
	}
	if th.migrateTo >= 0 && th.migrateTo != th.TCB.CPU && !th.migrating &&
		th.TCB.PC < len(th.TCB.Spec.Prog) {
		// The boundary must not also be the job's end: then teardown wins
		// (completeJob cancels the request) and the task stays resident —
		// migrating a job mid-retire would move its miss accounting and
		// next release to the wrong CPU.
		if k.migrationSafe(th) == nil {
			tgt := th.migrateTo
			th.migrateTo = -1
			k.doMigrate(th, tgt)
			return
		}
		// Unsafe boundary (the thread holds a lock or serves as a PI
		// place-holder): keep the request pending for a later boundary.
	}
	if k.exec.current == th && th.TCB.State == task.Ready && k.exec.seg == nil {
		k.continueThread(th)
	}
}

// opCharge is the CPU cost of a kernel op's happy path; contention
// costs (blocking, PI, wakeups) are charged where they occur.
func (k *Kernel) opCharge(op task.Op) vtime.Duration {
	p := k.prof
	switch op.Kind {
	case task.OpAcquire, task.OpRelease:
		return p.Syscall + p.SemBookkeeping
	case task.OpWaitEvent, task.OpSignalEvent,
		task.OpCondWait, task.OpCondSignal, task.OpCondBroadcast,
		task.OpDelay: // a delay's syscall arms its timer
		return p.Syscall
	case task.OpSend, task.OpRecv:
		return p.Syscall + p.MailboxTransfer(op.Size)
	case task.OpStateWrite, task.OpStateRead:
		// State messages bypass the kernel entirely: a protected
		// shared-memory write, no system call (§7).
		return p.StateMsgTransfer(op.Size)
	case task.OpVSend:
		// Virtual links extend the §7 no-syscall philosophy to MPMC: the
		// fast path is a user-space ticket claim plus the message copies
		// (the kernel is entered only to sleep or wake, charged on the
		// blocking paths where it occurs). One claim covers the batch.
		return p.VLinkTransfer(op.Size, op.Batch())
	case task.OpVRecv:
		return p.VLinkTransfer(op.Size, 1)
	case task.OpIO:
		c := p.Syscall
		if d := k.device(op.Obj); d != nil {
			c += d.IOCost()
		}
		return c
	case task.OpBusSend:
		return p.Syscall + vtime.Duration(op.Size)*p.CopyPerByte
	default:
		return 0
	}
}

// accountOp books an op's base charge into the right stats bucket.
func (k *Kernel) accountOp(op task.Op, c vtime.Duration) {
	switch op.Kind {
	case task.OpAcquire, task.OpRelease, task.OpWaitEvent, task.OpSignalEvent,
		task.OpCondWait, task.OpCondSignal, task.OpCondBroadcast:
		k.stats.SemCharge += c
	case task.OpSend, task.OpRecv, task.OpStateWrite, task.OpStateRead, task.OpBusSend,
		task.OpVSend, task.OpVRecv:
		k.stats.IPCCharge += c
	default:
		k.stats.SyscallCharge += c
	}
}

// performOp executes the op's semantic action at the end of its
// segment. Handlers advance PC themselves on success and leave it in
// place when the thread blocks at the op.
func (k *Kernel) performOp(th *Thread, op task.Op) {
	switch op.Kind {
	case task.OpAcquire:
		k.doAcquire(th, op)
	case task.OpRelease:
		k.doRelease(th, op)
	case task.OpWaitEvent:
		k.doWaitEvent(th, op)
	case task.OpSignalEvent:
		k.doSignalEvent(th, op)
	case task.OpSend, task.OpVSend:
		k.doSend(th, op)
	case task.OpRecv, task.OpVRecv:
		k.doRecv(th, op)
	case task.OpStateWrite:
		k.doStateWrite(th, op)
	case task.OpStateRead:
		k.doStateRead(th, op)
	case task.OpCondWait:
		k.doCondWait(th, op)
	case task.OpCondSignal:
		k.doCondSignal(th, op, false)
	case task.OpCondBroadcast:
		k.doCondSignal(th, op, true)
	case task.OpIO:
		k.doIO(th, op)
	case task.OpBusSend:
		k.doBusSend(th, op)
	case task.OpDelay:
		k.doDelay(th, op)
	default:
		panic(fmt.Sprintf("kernel: unknown op %v", op))
	}
}

// completeJob finishes the current job: record stats, detect deadline
// misses, and block until the next release. A migration deferred to a
// segment boundary that turns out to be the job's end is cancelled —
// the task is torn down on its current CPU and can be migrated between
// jobs instead.
func (k *Kernel) completeJob(th *Thread) {
	if k.OnJobComplete != nil {
		k.OnJobComplete(th)
	}
	tcb := th.TCB
	now := k.eng.Now()
	resp := now.Sub(tcb.ReleasedAt)
	tcb.Completions++
	tcb.TotalResp += resp
	if resp > tcb.MaxResp {
		tcb.MaxResp = resp
	}
	if k.record {
		k.ensureHists(th)
		th.respHist.Add(resp)
	}
	k.exec.met.Inc(metrics.Completions)
	if now.After(tcb.AbsDeadline) {
		tcb.Misses++
		k.exec.met.Inc(metrics.DeadlineMisses)
		k.trAddDur(trace.Miss, tcb.Name, "", k.exec.ovAcc)
	} else {
		k.trAddDur(trace.Complete, tcb.Name, "", k.exec.ovAcc)
	}
	k.exec.ovAcc = 0
	th.migrateTo = -1
	k.releaseAllHeld(th)
	th.jobActive = false
	tcb.PC = 0
	tcb.OpRemaining = 0
	tcb.PendingHint = task.NoHint
	k.clearPreAcq(th)
	tcb.State = task.Blocked
	k.blockTask(tcb)
	k.reschedule()
}

// onRelease is the timer interrupt releasing a periodic job.
func (k *Kernel) onRelease(th *Thread) {
	th.nextRel = th.nextRel.Add(th.TCB.Spec.Period)
	k.scheduleRelease(th)
	k.charge(k.prof.TimerInterrupt, &k.stats.TimerCharge)
	if th.jobActive {
		// Previous job still running: period overrun. The release is
		// lost (the job in flight continues); its lateness is counted
		// at completion.
		th.TCB.Misses++ // the lost job can never meet its deadline
		k.exec.met.Inc(metrics.Overruns)
		k.exec.met.Inc(metrics.DeadlineMisses)
		k.trAdd(trace.Overrun, th.TCB.Name, "")
		return
	}
	k.startJob(th)
}

// ReleaseAperiodic releases one job of an aperiodic thread (Period 0).
// Call it from an ISR or test harness; it is a no-op if a job is in
// flight.
func (k *Kernel) ReleaseAperiodic(th *Thread) {
	k.exec = k.cpuOf(th)
	if th.jobActive {
		k.exec.met.Inc(metrics.Overruns)
		return
	}
	k.startJob(th)
}

func (k *Kernel) startJob(th *Thread) {
	tcb := th.TCB
	now := k.eng.Now()
	if th.beforeJob != nil {
		tcb.Spec.Prog = th.beforeJob()
	}
	tcb.Releases++
	k.exec.met.Inc(metrics.Releases)
	tcb.ReleasedAt = now
	tcb.AbsDeadline = now.Add(tcb.Spec.RelDeadline())
	tcb.EffDeadline = tcb.AbsDeadline
	tcb.PC = 0
	tcb.OpRemaining = 0
	tcb.PendingHint = task.NoHint
	th.jobActive = true
	tcb.State = task.Ready
	k.unblockTask(tcb)
	k.trAdd(trace.Release, tcb.Name, "")
	k.reschedule()
}
