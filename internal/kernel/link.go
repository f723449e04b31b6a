package kernel

import (
	"fmt"

	"emeralds/internal/costmodel"
	"emeralds/internal/ipc"
	"emeralds/internal/ksync"
	"emeralds/internal/mem"
	"emeralds/internal/metrics"
	"emeralds/internal/task"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

// This file implements the kernel's two message-queue objects, both
// bounded and copying:
//
//   - mailboxes (Figure 1), which move one message per send and block
//     the sender on a full queue;
//   - virtual links, MPMC queues in the Virtual-Link style that
//     generalize §7's wait-free single-writer state messages to
//     several producers and consumers. A send claims a batch of slots,
//     all or nothing, and a drop-mode link refuses and counts the
//     surplus instead of blocking. The fast path models a user-space
//     ring (no syscall charge; see opCharge); the kernel is entered only
//     to sleep or wake. The runnable counterpart is internal/ipc/vlink's
//     lock-free ring.
//
// A virtual link is a mailbox with its cost, send batch and full-queue
// policy changed, so both are one link over one ipc.Queue ring and
// share every path; the linkKind chosen by NewMailbox or NewVLink
// fixes what differs. They keep separate id spaces.

// linkKind is what distinguishes one kind of link from the other.
type linkKind struct {
	noun    string      // RAM account and diagnostics: "mailbox" or "vlink"
	class   int         // lock class, so lock domains do not collide
	sendOp  task.OpKind // the op a parked sender sits on
	batched bool        // a send claims op.Batch() slots, not one

	sendEv, recvEv              trace.Kind
	sends, recvs, blocks, drops metrics.ID

	// opCost is the fixed cost of one operation, the lock hold time;
	// transfer charges moving n messages of size bytes from one side.
	opCost   func(*costmodel.Profile) vtime.Duration
	transfer func(p *costmodel.Profile, size, n int) vtime.Duration
}

var mailboxKind = &linkKind{
	noun: "mailbox", class: objMbox, sendOp: task.OpSend,
	sendEv: trace.MsgSend, recvEv: trace.MsgRecv,
	sends: metrics.MailboxSends, recvs: metrics.MailboxRecvs,
	blocks: metrics.MailboxBlocks, drops: metrics.MailboxDrops,
	opCost: func(p *costmodel.Profile) vtime.Duration { return p.MailboxOp },
	// A mailbox moves one message at a time, so n is always 1.
	transfer: func(p *costmodel.Profile, size, _ int) vtime.Duration { return p.MailboxTransfer(size) },
}

var vlinkKind = &linkKind{
	noun: "vlink", class: objVLink, sendOp: task.OpVSend, batched: true,
	sendEv: trace.VLinkSend, recvEv: trace.VLinkRecv,
	sends: metrics.VLinkSends, recvs: metrics.VLinkRecvs,
	blocks: metrics.VLinkBlocks, drops: metrics.VLinkDrops,
	opCost:   func(p *costmodel.Profile) vtime.Duration { return p.VLinkOp },
	transfer: (*costmodel.Profile).VLinkTransfer,
}

// link is one message queue with the tasks parked on it.
type link struct {
	*linkKind
	q     *ipc.Queue
	drop  bool // full-queue policy: refuse and count instead of blocking
	sendq ksync.WaitQueue
	recvq ksync.WaitQueue
}

// NewMailbox creates a mailbox with the given capacity and returns its
// id.
func (k *Kernel) NewMailbox(name string, capacity int) int {
	if name == "" {
		name = fmt.Sprintf("mbox%d", len(k.mboxes))
	}
	return k.newLink(&k.mboxes, mailboxKind, name, capacity, false)
}

// NewVLink creates a virtual link with the given capacity and
// full-queue policy (drop=true refuses and counts surplus messages
// instead of blocking the producer), returning its id.
func (k *Kernel) NewVLink(name string, capacity int, drop bool) int {
	if name == "" {
		name = fmt.Sprintf("vlink%d", len(k.vlinks))
	}
	return k.newLink(&k.vlinks, vlinkKind, name, capacity, drop)
}

func (k *Kernel) newLink(links *[]*link, kind *linkKind, name string, capacity int, drop bool) int {
	l := &link{linkKind: kind, q: ipc.NewQueue(len(*links), name, capacity), drop: drop}
	l.q.Observe(k.met, kind.sends, kind.recvs)
	k.chargeRAM(kind.noun, mem.RAMPerMailbox+l.q.Cap()*mem.RAMPerMsgSlot)
	*links = append(*links, l)
	return l.q.ID
}

func linkAt(links []*link, noun string, id int) *link {
	if id < 0 || id >= len(links) {
		panic(fmt.Sprintf("kernel: no %s %d", noun, id))
	}
	return links[id]
}

// linkOf returns the link a send or receive op addresses.
func (k *Kernel) linkOf(op task.Op) *link {
	if op.Kind == task.OpVSend || op.Kind == task.OpVRecv {
		return linkAt(k.vlinks, vlinkKind.noun, op.Obj)
	}
	return linkAt(k.mboxes, mailboxKind.noun, op.Obj)
}

// MailboxLen reports the number of queued messages (tests).
func (k *Kernel) MailboxLen(id int) int { return linkAt(k.mboxes, mailboxKind.noun, id).q.Len() }

// claim is the number of slots a send op takes on l.
func (l *link) claim(op task.Op) int {
	if l.batched {
		return op.Batch()
	}
	return 1
}

// pendingSend returns the send op the parked sender s waits to
// complete, if it still sits on one.
func (l *link) pendingSend(s *task.TCB) (task.Op, bool) {
	if prog := s.Spec.Prog; s.PC < len(prog) && prog[s.PC].Kind == l.sendOp {
		return prog[s.PC], true
	}
	return task.Op{}, false
}

func (k *Kernel) doSend(th *Thread, op task.Op) {
	l := k.linkOf(op)
	k.lockObj(l.class, l.q.ID, l.opCost(k.prof))
	n := l.claim(op)
	if !l.drop && l.q.Space() < n {
		// Blocking sends are all-or-nothing: wait until the whole claim
		// fits, so a batch is never interleaved with itself.
		k.park(th, op, l, &l.sendq, " full")
		return
	}
	accepted := min(n, l.q.Space())
	k.enqueue(l, op, accepted, th.TCB.Name)
	k.met.Add(l.drops, uint64(n-accepted)) // only a drop-mode link falls short
	th.TCB.PC++
	if k.pump(l) {
		k.reschedule()
	}
}

func (k *Kernel) doRecv(th *Thread, op task.Op) {
	l := k.linkOf(op)
	k.lockObj(l.class, l.q.ID, l.opCost(k.prof))
	msg, ok := l.q.Pop()
	if !ok {
		k.park(th, op, l, &l.recvq, " empty")
		return
	}
	th.msgVal = msg.Val
	th.TCB.PC++
	k.trAdd(l.recvEv, th.TCB.Name, l.q.Name)
	if k.pump(l) {
		k.reschedule()
	}
}

// enqueue puts n copies of a send op's message on l, each traced as a
// send by sender. The caller has checked that they fit.
func (k *Kernel) enqueue(l *link, op task.Op, n int, sender string) {
	for i := 0; i < n; i++ {
		l.q.Push(ipc.Msg{Val: op.Val, Size: op.Size})
		k.trAdd(l.sendEv, sender, l.q.Name)
	}
}

// park blocks th on one of l's wait queues; pump completes its op.
func (k *Kernel) park(th *Thread, op task.Op, l *link, wq *ksync.WaitQueue, why string) {
	k.exec.met.Inc(l.blocks)
	th.TCB.PendingHint = op.Hint
	wq.Add(th.TCB)
	th.TCB.State = task.Blocked
	k.blockTask(th.TCB)
	k.traceOccupancyEnd(th, trace.BlockEv, l.q.Name+why)
	k.reschedule()
}

// pump moves messages across l until no parked task can proceed:
// queued messages go to parked receivers, then the highest-priority
// parked sender completes if its whole claim fits. That sender gates
// the queue, so a large batch cannot be starved by smaller ones
// slipping past it. Reports whether any thread became ready.
func (k *Kernel) pump(l *link) bool {
	woke := false
	for {
		for l.q.Len() > 0 && l.recvq.Len() > 0 {
			w := k.thOf(l.recvq.PopHighest())
			msg, _ := l.q.Pop() // loop condition guarantees non-empty
			w.msgVal = msg.Val
			// Charge the receiver-side copy now that the data moves.
			k.charge(l.transfer(k.prof, msg.Size, 1), &k.stats.IPCCharge)
			w.TCB.PC++ // past the receive op
			k.trAdd(l.recvEv, w.TCB.Name, l.q.Name)
			if k.wakeup(w) {
				woke = true
			}
		}
		s := l.sendq.Peek()
		if s == nil {
			return woke
		}
		if op, ok := l.pendingSend(s); ok {
			n := l.claim(op)
			if l.q.Space() < n {
				return woke // the head claim still does not fit
			}
			k.enqueue(l, op, n, s.Name)
			k.charge(l.transfer(k.prof, op.Size, n), &k.stats.IPCCharge)
			s.PC++
		}
		l.sendq.Remove(s)
		if k.wakeup(k.thOf(s)) {
			woke = true
		}
	}
}

// InjectMessage deposits a message into a mailbox from interrupt
// context (fieldbus reception, device input). A full mailbox drops the
// message — fieldbus data is periodic state, so the next sample
// supersedes it. Reports whether it was delivered.
func (k *Kernel) InjectMessage(id int, val int64, size int) bool {
	k.exec = k.cpus[0] // interrupts are wired to CPU 0
	k.exec.met.Inc(metrics.Interrupts)
	k.charge(k.prof.InterruptEntry, &k.stats.TimerCharge)
	l := linkAt(k.mboxes, mailboxKind.noun, id)
	if !l.q.Push(ipc.Msg{Val: val, Size: size}) {
		k.exec.met.Inc(l.drops)
		k.trAdd(trace.Interrupt, "isr", l.q.Name+" drop")
		return false
	}
	k.trAdd(trace.Interrupt, "isr", l.q.Name)
	if k.pump(l) {
		k.reschedule()
	}
	return true
}

// QueuedMessages reports the instantaneous total of messages sitting in
// all mailboxes and virtual links — the occupancy gauge the telemetry
// sampler records.
func (k *Kernel) QueuedMessages() int {
	n := 0
	for _, links := range [...][]*link{k.mboxes, k.vlinks} {
		for _, l := range links {
			n += l.q.Len()
		}
	}
	return n
}
