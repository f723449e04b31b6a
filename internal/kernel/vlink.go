package kernel

import (
	"fmt"

	"emeralds/internal/ipc"
	"emeralds/internal/ksync"
	"emeralds/internal/mem"
	"emeralds/internal/metrics"
	"emeralds/internal/task"
)

// This file implements virtual links: bounded MPMC message queues in
// the Virtual-Link style, generalizing §7's wait-free single-writer
// state messages to multiple producers and consumers. The fast path
// models a user-space ring (no syscall charge; see opCharge); the
// kernel is entered only on the blocking edges — a block-mode send
// whose batch does not fit, or a receive on an empty link — which
// compose with every scheduling policy and CPU count through the same
// blockTask/wakeup machinery mailboxes use. The runnable counterpart
// of this object is internal/ipc/vlink's lock-free ring.

type kvlink struct {
	q     *ipc.VLink
	sendq ksync.WaitQueue
	recvq ksync.WaitQueue
}

// NewVLink creates a virtual link with the given capacity and
// full-queue policy (drop=true refuses and counts surplus messages
// instead of blocking the producer), returning its id.
func (k *Kernel) NewVLink(name string, capacity int, drop bool) int {
	if name == "" {
		name = fmt.Sprintf("vlink%d", len(k.vlinks))
	}
	vl := &kvlink{q: ipc.NewVLink(len(k.vlinks), name, capacity, drop)}
	vl.q.Observe(k.met)
	k.chargeRAM("vlink", mem.RAMPerMailbox+vl.q.Cap()*mem.RAMPerMsgSlot)
	k.vlinks = append(k.vlinks, vl)
	return vl.q.ID
}

func (k *Kernel) vlinkOf(id int) *kvlink {
	if id < 0 || id >= len(k.vlinks) {
		panic(fmt.Sprintf("kernel: no vlink %d", id))
	}
	return k.vlinks[id]
}

// VLinkLen reports the number of queued messages (tests).
func (k *Kernel) VLinkLen(id int) int { return k.vlinkOf(id).q.Len() }

// VLinkDropped reports the drop-mode refusal count (tests).
func (k *Kernel) VLinkDropped(id int) uint64 { return k.vlinkOf(id).q.Dropped() }

func (k *Kernel) doVSend(th *Thread, op task.Op) {
	vl := k.vlinkOf(op.Obj)
	k.lockObj(objVLink, vl.q.ID, k.prof.VLinkOp)
	n := op.Batch()
	if !vl.q.Drop && vl.q.Space() < n {
		// Block-mode batches are all-or-nothing: wait until the whole
		// claim fits, so a batch is never interleaved with itself.
		k.exec.met.Inc(metrics.VLinkBlocks)
		th.TCB.PendingHint = op.Hint
		vl.sendq.Add(th.TCB)
		th.TCB.State = task.Blocked
		k.blockTask(th.TCB)
		k.traceOccupancyEnd(th, traceKindBlock, vl.q.Name+" full")
		k.reschedule()
		return
	}
	accepted := vl.q.PushBatch(ipc.Msg{Val: op.Val, Size: op.Size}, n)
	th.TCB.PC++
	for i := 0; i < accepted; i++ {
		k.trAdd(traceKindVLinkSend, th.TCB.Name, vl.q.Name)
	}
	if k.pumpVLink(vl) {
		k.reschedule()
	}
}

func (k *Kernel) doVRecv(th *Thread, op task.Op) {
	vl := k.vlinkOf(op.Obj)
	k.lockObj(objVLink, vl.q.ID, k.prof.VLinkOp)
	msg, ok := vl.q.Pop()
	if !ok {
		k.exec.met.Inc(metrics.VLinkBlocks)
		th.TCB.PendingHint = op.Hint
		vl.recvq.Add(th.TCB)
		th.TCB.State = task.Blocked
		k.blockTask(th.TCB)
		k.traceOccupancyEnd(th, traceKindBlock, vl.q.Name+" empty")
		k.reschedule()
		return
	}
	th.msgVal = msg.Val
	th.TCB.PC++
	k.trAdd(traceKindVLinkRecv, th.TCB.Name, vl.q.Name)
	if k.completePendingVSends(vl) {
		k.reschedule()
	}
}

// pumpVLink delivers queued messages to blocked receivers, reporting
// whether any thread became ready.
func (k *Kernel) pumpVLink(vl *kvlink) bool {
	woke := false
	for !vl.q.Empty() && vl.recvq.Len() > 0 {
		wTCB := vl.recvq.PopHighest()
		w := k.thOf(wTCB)
		msg, _ := vl.q.Pop() // loop condition guarantees non-empty
		w.msgVal = msg.Val
		// Charge the receiver-side slot claim and copy now that the
		// data moves.
		k.charge(k.prof.VLinkTransfer(msg.Size, 1), &k.stats.IPCCharge)
		wTCB.PC++ // past the vrecv op
		k.trAdd(traceKindVLinkRecv, wTCB.Name, vl.q.Name)
		if k.wakeup(w) {
			woke = true
		}
	}
	if k.completePendingVSends(vl) {
		woke = true
	}
	return woke
}

// completePendingVSends finishes blocked batch sends in priority order
// while their claims fit, reporting whether any thread became ready.
// The highest-priority waiter gates the queue: a batch that still does
// not fit stays blocked and nothing behind it is considered, so a large
// batch cannot be starved by smaller ones slipping past it.
func (k *Kernel) completePendingVSends(vl *kvlink) bool {
	woke := false
	for vl.sendq.Len() > 0 {
		sTCB := vl.sendq.PopHighest()
		s := k.thOf(sTCB)
		prog := sTCB.Spec.Prog
		if sTCB.PC < len(prog) && prog[sTCB.PC].Kind == task.OpVSend {
			op := prog[sTCB.PC]
			n := op.Batch()
			if vl.q.Space() < n {
				vl.sendq.Add(sTCB) // head batch still does not fit
				break
			}
			vl.q.PushBatch(ipc.Msg{Val: op.Val, Size: op.Size}, n)
			k.charge(k.prof.VLinkTransfer(op.Size, n), &k.stats.IPCCharge)
			sTCB.PC++
			for i := 0; i < n; i++ {
				k.trAdd(traceKindVLinkSend, sTCB.Name, vl.q.Name)
			}
		}
		if k.wakeup(s) {
			woke = true
		}
		// Newly pushed data may satisfy a blocked receiver in turn.
		for !vl.q.Empty() && vl.recvq.Len() > 0 {
			wTCB := vl.recvq.PopHighest()
			w := k.thOf(wTCB)
			msg, _ := vl.q.Pop()
			w.msgVal = msg.Val
			k.charge(k.prof.VLinkTransfer(msg.Size, 1), &k.stats.IPCCharge)
			wTCB.PC++
			k.trAdd(traceKindVLinkRecv, wTCB.Name, vl.q.Name)
			if k.wakeup(w) {
				woke = true
			}
		}
	}
	return woke
}
