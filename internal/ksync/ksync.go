// Package ksync provides the synchronization bookkeeping shared by the
// kernel's semaphore and condition-variable implementations (§6):
// priority-ordered wait queues and the per-holder priority-inheritance
// records needed to restore a task's own priority when it releases a
// lock — including the place-holder TCB tracking of the §6.2 optimized
// scheme and correct restoration under nested locks.
package ksync

import (
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// WaitQueue is a small, priority-ordered set of blocked tasks. Embedded
// wait queues hold a handful of entries, so a slice with linear
// operations beats pointer structures (the same reasoning as §5.1's
// queue-versus-heap measurement).
type WaitQueue struct {
	ts []*task.TCB
	// Inline storage for the common few-waiter case, so the first Add
	// does not allocate. Valid because WaitQueues are embedded in
	// heap-resident kernel objects and never copied after first use.
	buf [4]*task.TCB
}

// Len reports the number of waiters.
func (w *WaitQueue) Len() int { return len(w.ts) }

// Add inserts t.
func (w *WaitQueue) Add(t *task.TCB) {
	if w.ts == nil {
		w.ts = w.buf[:0]
	}
	w.ts = append(w.ts, t)
}

// Remove deletes t if present, reporting whether it was found.
func (w *WaitQueue) Remove(t *task.TCB) bool {
	for i, u := range w.ts {
		if u == t {
			w.ts = append(w.ts[:i], w.ts[i+1:]...)
			return true
		}
	}
	return false
}

// Peek returns the highest-priority waiter without removing it, or nil.
// Ties are broken by EarlierDeadline then ID, so DP waiters with equal
// static priority order by deadline.
func (w *WaitQueue) Peek() *task.TCB {
	var best *task.TCB
	for _, t := range w.ts {
		if best == nil || higherWaiter(t, best) {
			best = t
		}
	}
	return best
}

func higherWaiter(a, b *task.TCB) bool {
	if a.EffPrio != b.EffPrio {
		return a.EffPrio < b.EffPrio
	}
	if a.EffDeadline != b.EffDeadline {
		return a.EffDeadline < b.EffDeadline
	}
	return a.ID < b.ID
}

// PopHighest removes and returns the highest-priority waiter, or nil.
func (w *WaitQueue) PopHighest() *task.TCB {
	best := w.Peek()
	if best != nil {
		w.Remove(best)
	}
	return best
}

// Each calls fn for every waiter (in insertion order).
func (w *WaitQueue) Each(fn func(*task.TCB)) {
	for _, t := range w.ts {
		fn(t)
	}
}

// Drain removes and returns all waiters (in insertion order). The
// result is a copy: the queue may be refilled (reusing its inline
// storage) while the caller is still walking the drained set.
func (w *WaitQueue) Drain() []*task.TCB {
	if len(w.ts) == 0 {
		return nil
	}
	out := append([]*task.TCB(nil), w.ts...)
	w.ts = w.ts[:0]
	return out
}

// Inheritance tracks one holder's priority inheritance for one
// semaphore: what the holder's effective keys were before inheriting,
// and which blocked waiter is serving as the place-holder for the
// holder's original queue slot (optimized scheme only; nil otherwise).
type Inheritance struct {
	Active      bool
	SavedPrio   int
	SavedDL     vtime.Time
	Placeholder *task.TCB
}

// Holder aggregates a task's lock-holding state: the semaphores it
// holds, used to compute the correct restore priority under nesting —
// releasing one lock must leave the holder boosted by the waiters of
// locks it still holds.
type Holder struct {
	held []HeldRef
	// Inline storage for the common nesting depth, as in WaitQueue.
	buf [2]HeldRef
}

// HeldRef names one held semaphore by id with a callback view of its
// current waiters.
type HeldRef struct {
	SemID int
	// TopWaiter returns the semaphore's highest-priority waiter (nil
	// when none). Kept as a closure so ksync stays independent of the
	// kernel's semaphore type.
	TopWaiter func() *task.TCB
}

// Push records that t acquired sem.
func (h *Holder) Push(ref HeldRef) {
	if h.held == nil {
		h.held = h.buf[:0]
	}
	h.held = append(h.held, ref)
}

// Pop removes the record for semID, reporting whether it was found.
func (h *Holder) Pop(semID int) bool {
	for i := len(h.held) - 1; i >= 0; i-- {
		if h.held[i].SemID == semID {
			h.held = append(h.held[:i], h.held[i+1:]...)
			return true
		}
	}
	return false
}

// HeldCount reports how many semaphores the task holds.
func (h *Holder) HeldCount() int { return len(h.held) }

// TopHeldSem returns the most recently acquired semaphore id (LIFO
// release order for forced cleanup).
func (h *Holder) TopHeldSem() (int, bool) {
	if len(h.held) == 0 {
		return 0, false
	}
	return h.held[len(h.held)-1].SemID, true
}

// RestoreTarget computes the effective priority and deadline the task
// should run at after releasing a lock: its base keys, boosted by the
// highest-priority waiter of every semaphore it still holds.
func (h *Holder) RestoreTarget(base int, ownDL vtime.Time) (int, vtime.Time) {
	prio, dl := base, ownDL
	for _, ref := range h.held {
		if w := ref.TopWaiter(); w != nil {
			if w.EffPrio < prio {
				prio = w.EffPrio
			}
			if w.EffDeadline < dl {
				dl = w.EffDeadline
			}
		}
	}
	return prio, dl
}
