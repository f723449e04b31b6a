package kernel

import (
	"fmt"

	"emeralds/internal/ksync"
	"emeralds/internal/mem"
	"emeralds/internal/metrics"
	"emeralds/internal/task"
	"emeralds/internal/trace"
)

// This file implements §6 of the paper: semaphores with full semantics
// and priority inheritance, in two builds selected by
// sim.Config.StandardSem —
//
// standard (§6.1):
//
//	if (sem locked) { do priority inheritance; add caller to wait
//	queue; block; }  lock sem;
//
// with priority inheritance performed by repositioning the holder in
// the sorted queue (O(n)), and two context switches (C₂, C₃ of
// Figure 7) on every contended acquire; and
//
// optimized (§6.2–6.3): the blocking call preceding acquire_sem carries
// the semaphore id (inserted by the code parser); at the unblocking
// event E the kernel checks the semaphore, performs priority
// inheritance right there, and leaves the waiter blocked on the
// semaphore — eliminating context switch C₂ — with both PI queue
// operations made O(1) by the place-holder position swap. The §6.3.1
// modification adds the per-semaphore pre-acquire queue that re-blocks
// hinted threads while the semaphore is held.

type semaphore struct {
	id      int
	name    string
	count   int
	initial int
	owner   *Thread // mutex holder (nil for counting semaphores or free)
	waiters ksync.WaitQueue
	inh     ksync.Inheritance
	preAcq  []*Thread // §6.3.1: past their hinted blocking call, not yet at acquire
	blocked []*Thread // pre-acquire threads re-blocked because the sem was taken
}

func (s *semaphore) isMutex() bool { return s.initial == 1 }

// NewSemaphore creates a binary semaphore (mutex) with priority
// inheritance and returns its id. Semaphore identifiers are statically
// defined at build time, as §6.2.1 notes is common in small-memory
// OSs.
func (k *Kernel) NewSemaphore(name string) int {
	return k.newSem(name, 1)
}

// NewCountingSemaphore creates a counting semaphore with the given
// initial count. Priority inheritance applies only to mutexes (a
// counting semaphore has no single owner to boost).
func (k *Kernel) NewCountingSemaphore(name string, count int) int {
	if count < 1 {
		count = 1
	}
	return k.newSem(name, count)
}

func (k *Kernel) newSem(name string, count int) int {
	if name == "" {
		name = fmt.Sprintf("sem%d", len(k.sems))
	}
	s := &semaphore{id: len(k.sems), name: name, count: count, initial: count}
	k.chargeRAM("semaphore", mem.RAMPerSemaphore)
	k.sems = append(k.sems, s)
	return s.id
}

func (k *Kernel) sem(id int) *semaphore {
	if id < 0 || id >= len(k.sems) {
		panic(fmt.Sprintf("kernel: no semaphore %d", id))
	}
	return k.sems[id]
}

// semOwnerName reports the current mutex holder's name (tests), "" when
// free.
func (k *Kernel) semOwnerName(id int) string {
	if o := k.sem(id).owner; o != nil {
		return o.TCB.Name
	}
	return ""
}

// doAcquire handles OpAcquire at the end of its charged segment. PC is
// at the acquire op; it advances only when the lock is obtained.
func (k *Kernel) doAcquire(th *Thread, op task.Op) {
	s := k.sem(op.Obj)
	k.exec.met.Inc(metrics.SemAcquires)
	k.lockObj(objSem, s.id, k.prof.SemBookkeeping)
	if th.preAcq == s {
		k.removePreAcq(th, s)
	}
	if s.count > 0 {
		s.count--
		if s.isMutex() {
			s.owner = th
			th.holder.Push(ksync.HeldRef{SemID: s.id, TopWaiter: s.waiters.Peek})
			// §6.3.1: the semaphore is now locked; any thread past its
			// hinted blocking call but not yet here gets blocked so it
			// cannot burn a context switch discovering the lock later.
			k.blockPreAcquirers(s, th)
		}
		th.TCB.PC++
		k.trAdd(trace.SemAcquire, th.TCB.Name, s.name)
		return
	}
	// Contended. The caller blocks *before* priority inheritance runs:
	// the place-holder swap moves the (blocked) caller to the holder's
	// old slot, and highestP must already have advanced past the
	// caller's own position or the forward scan would miss the boosted
	// holder entirely.
	k.exec.met.Inc(metrics.SemBlocks)
	th.semBlockAt = k.eng.Now()
	th.TCB.State = task.Blocked
	k.blockTask(th.TCB)
	k.inheritFromWaiter(s, th)
	s.waiters.Add(th.TCB)
	th.waitingSem = s
	k.traceOccupancyEnd(th, trace.SemBlockWait, k.semBlockDetail(s))
	k.reschedule()
}

// semBlockDetail names the semaphore and, for a held mutex, its holder
// — the identity the attribution engine charges the blocked time to.
// Empty with tracing off: the concatenation only feeds the trace.
func (k *Kernel) semBlockDetail(s *semaphore) string {
	if k.tr == nil {
		return ""
	}
	if s.owner != nil {
		return s.name + " holder=" + s.owner.TCB.Name
	}
	return s.name
}

// doRelease handles OpRelease.
func (k *Kernel) doRelease(th *Thread, op task.Op) {
	s := k.sem(op.Obj)
	k.lockObj(objSem, s.id, k.prof.SemBookkeeping)
	if s.isMutex() && s.owner != th {
		// Releasing a mutex one does not hold is an application bug;
		// surface it as a fault rather than corrupting lock state.
		k.exec.met.Inc(metrics.Faults)
		k.trAdd(trace.Fault, th.TCB.Name, "release of unheld "+s.name)
		th.TCB.PC++
		return
	}
	k.trAdd(trace.SemRelease, th.TCB.Name, s.name)
	k.releaseInternal(th, s)
	th.TCB.PC++
	k.reschedule()
}

// releaseInternal releases s on behalf of th without touching PC or
// rescheduling (shared with the condition-variable wait path).
func (k *Kernel) releaseInternal(th *Thread, s *semaphore) {
	if s.isMutex() {
		th.holder.Pop(s.id)
		s.owner = nil
	}
	// Undo priority inheritance: restore to base keys boosted by the
	// waiters of locks still held.
	var ph *task.TCB
	hadInh := s.inh.Active
	if hadInh {
		ph = s.inh.Placeholder
		s.inh = ksync.Inheritance{}
	}
	prio, dl := th.holder.RestoreTarget(th.TCB.BasePrio, th.TCB.AbsDeadline)
	if hadInh || prio != th.TCB.EffPrio || dl != th.TCB.EffDeadline {
		opt := k.optPI
		if ph != nil && ph.CPU != th.TCB.CPU {
			// The place-holder swap needs both tasks in one queue; a
			// cross-CPU pair falls back to the standard reposition.
			ph = nil
			opt = false
		}
		cost := k.sched(th.TCB).Restore(th.TCB, ph, prio, dl, opt)
		k.lockRunq(th.TCB.CPU, cost)
		k.charge(cost, &k.stats.SemCharge)
		k.exec.met.Inc(metrics.PIRestores)
		k.trAdd(trace.Restore, th.TCB.Name, s.name)
	}
	// §6.3.1: wake the pre-acquire threads that were re-blocked when
	// the semaphore was taken; they proceed to their acquire calls.
	for _, w := range s.blocked {
		w.TCB.State = task.Ready
		k.unblockTask(w.TCB)
		s.preAcq = append(s.preAcq, w)
		w.preAcq = s
	}
	s.blocked = nil
	// Grant to the highest-priority waiter, if any.
	if wTCB := s.waiters.PopHighest(); wTCB != nil {
		w := k.thOf(wTCB)
		w.waitingSem = nil
		if s.isMutex() {
			s.owner = w
			w.holder.Push(ksync.HeldRef{SemID: s.id, TopWaiter: s.waiters.Peek})
		}
		// The waiter's PC sits at the op that will consume the lock:
		// its own acquire (standard block or §6.2 hint block), or the
		// cond-wait op whose mutex it is re-taking.
		k.advancePastLockOp(w, s)
		w.TCB.State = task.Ready
		k.unblockTask(w.TCB)
		k.exec.met.Inc(metrics.SemGrants)
		if k.record {
			k.ensureHists(w)
			w.blockHist.Add(k.eng.Now().Sub(w.semBlockAt))
		}
		k.trAdd(trace.SemGrant, wTCB.Name, s.name)
		// With the semaphore still locked (by w now), hinted threads in
		// the pre-acquire queue must stay parked.
		k.blockPreAcquirers(s, w)
		return
	}
	s.count++
}

// releaseAllHeld force-releases every semaphore the thread still holds
// — a job completing with unbalanced acquire/release must not leak
// locks, or every future contender deadlocks. Each forced release is
// surfaced as a fault: it is always an application bug.
func (k *Kernel) releaseAllHeld(th *Thread) {
	for th.holder.HeldCount() > 0 {
		id, ok := th.holder.TopHeldSem()
		if !ok {
			break
		}
		s := k.sem(id)
		k.exec.met.Inc(metrics.Faults)
		k.trAdd(trace.Fault, th.TCB.Name, "job ended holding "+s.name)
		k.releaseInternal(th, s)
	}
}

// advancePastLockOp moves the granted waiter's PC past the op that was
// waiting for s.
func (k *Kernel) advancePastLockOp(w *Thread, s *semaphore) {
	w.reacquire = nil
	prog := w.TCB.Spec.Prog
	if w.TCB.PC >= len(prog) {
		return
	}
	op := prog[w.TCB.PC]
	switch {
	case op.Kind == task.OpAcquire && op.Obj == s.id:
		w.TCB.PC++
	case op.Kind == task.OpCondWait && op.Hint == s.id:
		w.TCB.PC++
	}
}

// inheritFromWaiter performs priority inheritance from waiter to the
// holder of s, transitively along blocking chains. Mirrors §6.2 for the
// optimized build (place-holder swap, O(1)) and §6.1 for the standard
// build (sorted-queue reposition, O(n)).
func (k *Kernel) inheritFromWaiter(s *semaphore, waiter *Thread) {
	if !s.isMutex() || s.owner == nil || s.owner == waiter {
		return
	}
	holder := s.owner
	hTCB, wTCB := holder.TCB, waiter.TCB
	boosts := wTCB.EffPrio < hTCB.EffPrio || wTCB.EffDeadline < hTCB.EffDeadline
	if !boosts {
		return
	}
	if !s.inh.Active {
		s.inh.Active = true
		s.inh.SavedPrio = hTCB.EffPrio
		s.inh.SavedDL = hTCB.EffDeadline
	} else if k.optPI && s.inh.Placeholder != nil && s.inh.Placeholder != wTCB {
		// §6.2 three-thread case: T₃ outbids T₂. Put the old
		// place-holder back in its own slot first ("T₂ is simply put
		// back to its original position"), then swap with T₃ below —
		// one extra O(1) step.
		k.charge(k.sched(hTCB).Restore(hTCB, s.inh.Placeholder, hTCB.EffPrio, hTCB.EffDeadline, true), &k.stats.SemCharge)
		s.inh.Placeholder = nil
	}
	// The O(1) place-holder swap requires holder and waiter in the same
	// run queue; a cross-CPU waiter boosts through the standard path.
	opt := k.optPI && hTCB.CPU == wTCB.CPU
	cost, ph := k.sched(hTCB).Inherit(hTCB, wTCB, opt)
	if opt {
		s.inh.Placeholder = ph
	}
	k.charge(cost, &k.stats.SemCharge)
	k.exec.met.Inc(metrics.PIInherits)
	k.trAdd(trace.Inherit, hTCB.Name, "from "+wTCB.Name)
	// Transitive inheritance: a boosted holder that is itself blocked
	// passes the boost along its own wait chain.
	if holder.waitingSem != nil {
		k.inheritFromWaiter(holder.waitingSem, holder)
	}
}

// blockPreAcquirers re-blocks every pre-acquire thread of s except the
// new holder (§6.3.1).
func (k *Kernel) blockPreAcquirers(s *semaphore, except *Thread) {
	if !k.optHints || len(s.preAcq) == 0 {
		return
	}
	var keep []*Thread
	for _, w := range s.preAcq {
		if w == except {
			keep = append(keep, w)
			continue
		}
		if w.TCB.State != task.Ready || k.isCurrent(w) {
			// The running thread cannot be parked here (it is the one
			// executing this path is `except`; defensively keep
			// anything not plainly parkable).
			keep = append(keep, w)
			continue
		}
		w.preAcq = nil
		w.TCB.State = task.Blocked
		k.blockTask(w.TCB)
		s.blocked = append(s.blocked, w)
	}
	s.preAcq = keep
}

func (k *Kernel) removePreAcq(th *Thread, s *semaphore) {
	th.preAcq = nil
	for i, w := range s.preAcq {
		if w == th {
			s.preAcq = append(s.preAcq[:i], s.preAcq[i+1:]...)
			return
		}
	}
}

func (k *Kernel) clearPreAcq(th *Thread) {
	if th.preAcq != nil {
		k.removePreAcq(th, th.preAcq)
	}
}

// enrollPreAcq registers a hinted thread on the semaphore it is about
// to acquire while the semaphore is free (§6.3.1).
func (k *Kernel) enrollPreAcq(th *Thread, s *semaphore) {
	if !s.isMutex() || th.preAcq == s {
		return
	}
	if th.preAcq != nil {
		k.removePreAcq(th, th.preAcq)
	}
	s.preAcq = append(s.preAcq, th)
	th.preAcq = s
}

// wakeup makes a thread blocked on an event/mailbox/condvar runnable —
// unless, under the optimized scheme, its semaphore hint shows the next
// acquire would block anyway, in which case priority inheritance
// happens right now and the thread stays blocked on the semaphore,
// saving context switch C₂ (§6.2). The caller must already have
// advanced the thread's PC past the blocking op and removed it from the
// wait structure. Reports whether the thread became ready; the caller
// reschedules.
func (k *Kernel) wakeup(th *Thread) bool {
	hint := th.TCB.PendingHint
	th.TCB.PendingHint = task.NoHint
	if k.optHints && hint >= 0 && hint < len(k.sems) {
		s := k.sems[hint]
		k.charge(k.prof.SemHintCheck, &k.stats.SemCharge)
		if s.isMutex() && s.owner != nil && s.owner != th {
			// Semaphore unavailable: inherit now, stay blocked.
			k.inheritFromWaiter(s, th)
			s.waiters.Add(th.TCB)
			th.waitingSem = s
			th.semBlockAt = k.eng.Now()
			k.exec.met.Inc(metrics.SavedSwitches)
			k.exec.met.Inc(metrics.HintPIs)
			k.trAdd(trace.SemHintPI, th.TCB.Name, k.semBlockDetail(s))
			return false
		}
		if s.isMutex() && s.owner == nil {
			k.enrollPreAcq(th, s)
		}
	}
	th.TCB.State = task.Ready
	k.unblockTask(th.TCB)
	k.trAdd(trace.UnblockEv, th.TCB.Name, "")
	return true
}

// --- events ---------------------------------------------------------

// kevent is a kernel event object: threads wait for it; a signal wakes
// all current waiters, or latches if nobody waits.
type kevent struct {
	id      int
	name    string
	pending bool
	waiters ksync.WaitQueue
}

// NewEvent creates an event object and returns its id.
func (k *Kernel) NewEvent(name string) int {
	if name == "" {
		name = fmt.Sprintf("event%d", len(k.events))
	}
	e := &kevent{id: len(k.events), name: name}
	k.chargeRAM("event", mem.RAMPerEvent)
	k.events = append(k.events, e)
	return e.id
}

func (k *Kernel) event(id int) *kevent {
	if id < 0 || id >= len(k.events) {
		panic(fmt.Sprintf("kernel: no event %d", id))
	}
	return k.events[id]
}

func (k *Kernel) doWaitEvent(th *Thread, op task.Op) {
	e := k.event(op.Obj)
	if e.pending {
		// Event already occurred: no block, and per §6.3.2 the context
		// switch is saved on this call instead of at acquire_sem.
		e.pending = false
		th.TCB.PC++
		if k.optHints && op.Hint >= 0 && op.Hint < len(k.sems) {
			s := k.sems[op.Hint]
			if s.isMutex() && s.owner == nil {
				k.enrollPreAcq(th, s)
			}
		}
		return
	}
	th.TCB.PendingHint = op.Hint
	e.waiters.Add(th.TCB)
	th.TCB.State = task.Blocked
	k.blockTask(th.TCB)
	k.traceOccupancyEnd(th, trace.BlockEv, e.name)
	k.reschedule()
}

func (k *Kernel) doSignalEvent(th *Thread, op task.Op) {
	th.TCB.PC++
	k.signalEvent(op.Obj, th.TCB.Name)
	k.reschedule()
}

// signalEvent wakes all waiters of the event (latching when none).
// Shared by the OpSignalEvent path and ISRs.
func (k *Kernel) signalEvent(id int, byName string) {
	e := k.event(id)
	k.trAdd(trace.Signal, byName, e.name)
	ws := e.waiters.Drain()
	if len(ws) == 0 {
		e.pending = true
		return
	}
	for _, wTCB := range ws {
		w := k.thOf(wTCB)
		// PC is at the wait op; the signal completes it.
		wTCB.PC++
		k.wakeup(w)
	}
}

// SignalEventISR signals an event from interrupt context and
// reschedules. For use inside ISR handlers and device drivers.
func (k *Kernel) SignalEventISR(id int) {
	k.signalEvent(id, "isr")
	k.reschedule()
}

// --- condition variables ---------------------------------------------

type condvar struct {
	id      int
	name    string
	waiters ksync.WaitQueue
}

// NewCondVar creates a condition variable and returns its id.
func (k *Kernel) NewCondVar(name string) int {
	if name == "" {
		name = fmt.Sprintf("cv%d", len(k.cvs))
	}
	c := &condvar{id: len(k.cvs), name: name}
	k.chargeRAM("condvar", mem.RAMPerCondVar)
	k.cvs = append(k.cvs, c)
	return c.id
}

func (k *Kernel) cv(id int) *condvar {
	if id < 0 || id >= len(k.cvs) {
		panic(fmt.Sprintf("kernel: no condvar %d", id))
	}
	return k.cvs[id]
}

// doCondWait atomically releases the mutex (op.Hint) and blocks on the
// condvar; the mutex is re-acquired before the op completes (PC
// advances only at the re-grant).
func (k *Kernel) doCondWait(th *Thread, op task.Op) {
	c := k.cv(op.Obj)
	m := k.sem(op.Hint)
	if m.isMutex() && m.owner != th {
		k.exec.met.Inc(metrics.Faults)
		k.trAdd(trace.Fault, th.TCB.Name, "cond-wait without "+m.name)
		th.TCB.PC++
		return
	}
	k.releaseInternal(th, m)
	th.reacquire = m
	c.waiters.Add(th.TCB)
	th.TCB.State = task.Blocked
	k.blockTask(th.TCB)
	k.traceOccupancyEnd(th, trace.BlockEv, c.name)
	k.reschedule()
}

func (k *Kernel) doCondSignal(th *Thread, op task.Op, broadcast bool) {
	c := k.cv(op.Obj)
	th.TCB.PC++
	for {
		wTCB := c.waiters.PopHighest()
		if wTCB == nil {
			break
		}
		w := k.thOf(wTCB)
		m := w.reacquire
		if m == nil || m.count > 0 {
			// Mutex free (or none): take it and wake.
			if m != nil {
				m.count--
				if m.isMutex() {
					m.owner = w
					w.holder.Push(ksync.HeldRef{SemID: m.id, TopWaiter: m.waiters.Peek})
				}
				w.reacquire = nil
				// The waiter takes the mutex right here, without passing
				// through doAcquire — record it, or trace replay loses
				// track of who holds m.
				k.trAdd(trace.SemAcquire, wTCB.Name, m.name)
			}
			wTCB.PC++
			wTCB.State = task.Ready
			k.unblockTask(wTCB)
			k.trAdd(trace.UnblockEv, wTCB.Name, c.name)
		} else {
			// Mutex held: move the waiter onto the mutex queue with
			// priority inheritance; it stays blocked and is granted the
			// lock inside the holder's release (same as a §6.2 hinted
			// wait — a condvar wait is a blocking call whose next
			// acquire is statically known).
			k.inheritFromWaiter(m, w)
			m.waiters.Add(wTCB)
			w.waitingSem = m
			w.semBlockAt = k.eng.Now()
			// The waiter silently moves from the condvar queue to the
			// mutex queue; surface the transition so replay knows it is
			// now semaphore-blocked (and on whom).
			k.trAdd(trace.SemBlockWait, wTCB.Name, k.semBlockDetail(m))
			if k.optHints {
				k.exec.met.Inc(metrics.SavedSwitches)
			}
		}
		if !broadcast {
			break
		}
	}
	k.reschedule()
}
