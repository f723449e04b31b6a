package schedq

import (
	"fmt"

	"emeralds/internal/task"
)

// Sorted is the RM queue of §5.1: all tasks — blocked and unblocked —
// kept in one list sorted by priority, with a highestP pointer at the
// first ready task. Selection reads highestP (O(1)); blocking the
// running task scans forward for the next ready task (O(n) worst case);
// unblocking compares one priority against highestP (O(1)).
//
// Keeping blocked tasks in the queue is what enables the §6.2
// place-holder trick: a blocked TCB can sit at any position, so it can
// hold the original slot of a priority-inheriting lock holder.
type Sorted struct {
	head, tail *task.TCB
	highestP   *task.TCB // first ready task, nil when none
	n          int
}

// Len reports how many tasks are in the queue.
func (q *Sorted) Len() int { return q.n }

// HighestP returns the current highest-priority ready task (nil if no
// task is ready). O(1) — this is the RM selection operation.
func (q *Sorted) HighestP() *task.TCB { return q.highestP }

// Insert adds t in priority order (stable: after equal priorities).
// Returns the number of entries scanned. Used at task admission; the
// steady-state fast paths never insert.
func (q *Sorted) Insert(t *task.TCB) (scanned int) {
	var after *task.TCB
	for u := q.head; u != nil; u = u.QNext {
		scanned++
		if t.HigherPrio(u) {
			break
		}
		after = u
	}
	q.insertAfter(t, after)
	if t.State == task.Ready && (q.highestP == nil || t.HigherPrio(q.highestP)) {
		q.highestP = t
	}
	return scanned
}

// insertAfter links t after `after` (after == nil means at the head).
func (q *Sorted) insertAfter(t, after *task.TCB) {
	if after == nil {
		t.QPrev, t.QNext = nil, q.head
		if q.head != nil {
			q.head.QPrev = t
		} else {
			q.tail = t
		}
		q.head = t
	} else {
		t.QPrev, t.QNext = after, after.QNext
		if after.QNext != nil {
			after.QNext.QPrev = t
		} else {
			q.tail = t
		}
		after.QNext = t
	}
	q.n++
}

// Remove unlinks t. If t was highestP the pointer advances to the next
// ready task; the scan cost is returned.
func (q *Sorted) Remove(t *task.TCB) (scanned int) {
	if q.highestP == t {
		q.highestP, scanned = q.nextReady(t.QNext)
	}
	q.unlink(t)
	return scanned
}

func (q *Sorted) unlink(t *task.TCB) {
	if t.QPrev != nil {
		t.QPrev.QNext = t.QNext
	} else {
		q.head = t.QNext
	}
	if t.QNext != nil {
		t.QNext.QPrev = t.QPrev
	} else {
		q.tail = t.QPrev
	}
	t.QNext, t.QPrev = nil, nil
	q.n--
}

// nextReady scans from `from` for the first ready task, returning it
// (or nil) and the number of entries examined.
func (q *Sorted) nextReady(from *task.TCB) (*task.TCB, int) {
	scanned := 0
	for u := from; u != nil; u = u.QNext {
		scanned++
		if u.State == task.Ready {
			return u, scanned
		}
	}
	return nil, scanned
}

// Block records that t (already marked Blocked by the caller) stopped
// being ready. If t was highestP, the pointer scans forward to the next
// ready task — the O(n) component of RM's t_b.
func (q *Sorted) Block(t *task.TCB) (scanned int) {
	if q.highestP == t {
		q.highestP, scanned = q.nextReady(t.QNext)
	}
	return scanned
}

// Unblock records that t (already marked Ready by the caller) became
// ready: one comparison against highestP — RM's O(1) t_u.
func (q *Sorted) Unblock(t *task.TCB) {
	if q.highestP == nil || t.HigherPrio(q.highestP) {
		q.highestP = t
	}
}

// Swap exchanges the positions of a and b in the list. O(1). This is
// the §6.2 place-holder operation: the blocked waiter T2 takes over the
// inheriting holder T1's original slot.
func (q *Sorted) Swap(a, b *task.TCB) {
	if a == b {
		return
	}
	// Normalize: make a precede b if adjacent.
	if b.QNext == a {
		a, b = b, a
	}
	if a.QNext == b { // adjacent
		p, n := a.QPrev, b.QNext
		a.QPrev, a.QNext = b, n
		b.QPrev, b.QNext = p, a
		if p != nil {
			p.QNext = b
		} else {
			q.head = b
		}
		if n != nil {
			n.QPrev = a
		} else {
			q.tail = a
		}
	} else {
		ap, an := a.QPrev, a.QNext
		bp, bn := b.QPrev, b.QNext
		a.QPrev, a.QNext = bp, bn
		b.QPrev, b.QNext = ap, an
		if ap != nil {
			ap.QNext = b
		} else {
			q.head = b
		}
		if an != nil {
			an.QPrev = b
		} else {
			q.tail = b
		}
		if bp != nil {
			bp.QNext = a
		} else {
			q.head = a
		}
		if bn != nil {
			bn.QPrev = a
		} else {
			q.tail = a
		}
	}
	// highestP tracks TCBs, not positions, so the pointer itself stays
	// valid; a ready task that moved up only needs one O(1) priority
	// comparison (in the PI scenario the mover has just inherited top
	// priority, so this restores the invariant without a scan).
	q.fixHighestAfterMove(a)
	q.fixHighestAfterMove(b)
}

func (q *Sorted) fixHighestAfterMove(t *task.TCB) {
	if t.State == task.Ready && (q.highestP == nil || t.HigherPrio(q.highestP)) {
		q.highestP = t
	}
}

// Reposition removes t and re-inserts it in sorted order — the standard
// (non-optimized) priority-inheritance queue manipulation, O(n).
// Returns entries scanned.
func (q *Sorted) Reposition(t *task.TCB) (scanned int) {
	s1 := q.Remove(t)
	s2 := q.Insert(t)
	return s1 + s2
}

// Front returns the head of the list (highest priority position).
func (q *Sorted) Front() *task.TCB { return q.head }

// Each calls fn for every task in list order.
func (q *Sorted) Each(fn func(*task.TCB)) {
	for t := q.head; t != nil; t = t.QNext {
		fn(t)
	}
}

// CheckInvariants verifies link consistency and that highestP points at
// a ready task of maximal effective priority (nil when nothing is
// ready). Positional order equals priority order except inside a
// priority-inheritance window, where the inheriting holder occupies its
// waiter's slot by design — so the check is by priority, not position.
// Tests call it after every operation.
func (q *Sorted) CheckInvariants() error {
	count := 0
	var bestReady *task.TCB
	var prev *task.TCB
	for t := q.head; t != nil; t = t.QNext {
		count++
		if t.QPrev != prev {
			return fmt.Errorf("schedq: %s has QPrev %v, want %v", t.Name, t.QPrev, prev)
		}
		if t.State == task.Ready && (bestReady == nil || t.HigherPrio(bestReady)) {
			bestReady = t
		}
		prev = t
		if count > q.n {
			return fmt.Errorf("schedq: list longer than n=%d (cycle?)", q.n)
		}
	}
	if count != q.n {
		return fmt.Errorf("schedq: walked %d nodes, n=%d", count, q.n)
	}
	if q.tail != prev {
		return fmt.Errorf("schedq: tail is %v, want %v", q.tail, prev)
	}
	if q.highestP == nil {
		if bestReady != nil {
			return fmt.Errorf("schedq: highestP=nil but %v is ready", bestReady)
		}
		return nil
	}
	if q.highestP.State != task.Ready {
		return fmt.Errorf("schedq: highestP=%v is not ready", q.highestP)
	}
	if bestReady != nil && bestReady != q.highestP && bestReady.HigherPrio(q.highestP) {
		return fmt.Errorf("schedq: highestP=%v but %v has higher priority", q.highestP, bestReady)
	}
	return nil
}
