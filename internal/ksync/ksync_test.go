package ksync

import (
	"testing"

	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

func mkWaiters(prios ...int) []*task.TCB {
	out := make([]*task.TCB, len(prios))
	for i, p := range prios {
		out[i] = task.New(i, task.Spec{})
		out[i].EffPrio = p
		out[i].EffDeadline = vtime.Time(100)
	}
	return out
}

func TestWaitQueuePriorityPop(t *testing.T) {
	var q WaitQueue
	ts := mkWaiters(5, 1, 3)
	for _, x := range ts {
		q.Add(x)
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
	if got := q.PopHighest(); got != ts[1] {
		t.Errorf("pop = %v", got)
	}
	if got := q.PopHighest(); got != ts[2] {
		t.Errorf("pop = %v", got)
	}
	if got := q.PopHighest(); got != ts[0] {
		t.Errorf("pop = %v", got)
	}
	if q.PopHighest() != nil {
		t.Error("empty pop should be nil")
	}
}

func TestWaitQueueTieBreakByDeadlineThenID(t *testing.T) {
	var q WaitQueue
	ts := mkWaiters(1, 1, 1)
	ts[0].EffDeadline = 300
	ts[1].EffDeadline = 200
	ts[2].EffDeadline = 200
	for _, x := range ts {
		q.Add(x)
	}
	if got := q.Peek(); got != ts[1] {
		t.Errorf("peek = %v, want earliest deadline then lowest id", got)
	}
}

func TestWaitQueueRemove(t *testing.T) {
	var q WaitQueue
	ts := mkWaiters(1, 2, 3)
	for _, x := range ts {
		q.Add(x)
	}
	if !q.Remove(ts[1]) {
		t.Error("remove failed")
	}
	if q.Remove(ts[1]) {
		t.Error("double remove succeeded")
	}
	if q.Len() != 2 {
		t.Errorf("len = %d", q.Len())
	}
}

func TestWaitQueueDrainAndEach(t *testing.T) {
	var q WaitQueue
	ts := mkWaiters(2, 1)
	for _, x := range ts {
		q.Add(x)
	}
	count := 0
	q.Each(func(*task.TCB) { count++ })
	if count != 2 {
		t.Errorf("Each visited %d", count)
	}
	drained := q.Drain()
	if len(drained) != 2 || q.Len() != 0 {
		t.Errorf("drain = %d, len = %d", len(drained), q.Len())
	}
	// Drain preserves insertion order.
	if drained[0] != ts[0] || drained[1] != ts[1] {
		t.Error("drain order wrong")
	}
}

func TestHolderPushPop(t *testing.T) {
	var h Holder
	h.Push(HeldRef{SemID: 1, TopWaiter: func() *task.TCB { return nil }})
	h.Push(HeldRef{SemID: 2, TopWaiter: func() *task.TCB { return nil }})
	if h.HeldCount() != 2 {
		t.Errorf("held = %d", h.HeldCount())
	}
	if !h.Pop(1) {
		t.Error("pop 1 failed")
	}
	if h.Pop(1) {
		t.Error("double pop succeeded")
	}
	if h.HeldCount() != 1 {
		t.Errorf("held = %d", h.HeldCount())
	}
}

func TestHolderRestoreTargetWithNesting(t *testing.T) {
	// The holder holds two locks; releasing one must keep the boost
	// from the other lock's top waiter.
	w := mkWaiters(0)[0]
	w.EffDeadline = 50
	var h Holder
	h.Push(HeldRef{SemID: 1, TopWaiter: func() *task.TCB { return w }})
	prio, dl := h.RestoreTarget(7, 500)
	if prio != 0 {
		t.Errorf("prio = %d, want waiter's 0", prio)
	}
	if dl != 50 {
		t.Errorf("deadline = %v, want waiter's 50", dl)
	}
	// Without waiters, base values win.
	h.Pop(1)
	h.Push(HeldRef{SemID: 2, TopWaiter: func() *task.TCB { return nil }})
	prio, dl = h.RestoreTarget(7, 500)
	if prio != 7 || dl != 500 {
		t.Errorf("restore = %d/%v, want base", prio, dl)
	}
}

func TestHolderRestoreTargetNoLocks(t *testing.T) {
	var h Holder
	prio, dl := h.RestoreTarget(3, 42)
	if prio != 3 || dl != 42 {
		t.Errorf("restore = %d/%v", prio, dl)
	}
}
