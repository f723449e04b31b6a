// Package ipc implements the intra-node communication mechanisms of
// Figure 1: the bounded, copying message queue behind the kernel's
// mailboxes and virtual links, and the state messages reconstructed
// from §7 — the single-writer multi-reader wait-free mechanism EMERALDS
// advocates for periodic sensor/actuator data. Figure 1's third
// mechanism, shared memory between protected address spaces, is not
// modelled: the simulator has no address spaces.
//
// This package holds the pure data structures; blocking semantics,
// cost charging and scheduler interaction live in the kernel.
package ipc

import (
	"emeralds/internal/metrics"
)

// Msg is one queued message: an opaque word plus the payload size used
// for copy-cost accounting (fieldbus messages are "short, simple
// messages", §3, so a word of payload plus a size is representative).
type Msg struct {
	Val  int64
	Size int
}

// Queue is a bounded FIFO message ring. In virtual time the kernel is a
// sequential interpreter, so one ring without atomics models both of
// its queue objects: a mailbox, and a virtual link, whose runnable
// lock-free counterpart is internal/ipc/vlink.
type Queue struct {
	ID   int
	Name string
	buf  []Msg
	head int
	n    int

	met          *metrics.Set // nil-safe; see Observe
	sends, recvs metrics.ID
}

// NewQueue returns a queue holding at most capacity messages.
func NewQueue(id int, name string, capacity int) *Queue {
	if capacity <= 0 {
		capacity = 1
	}
	return &Queue{ID: id, Name: name, buf: make([]Msg, capacity)}
}

// Observe counts every accepted message into set under sends and every
// dequeued one under recvs. The ipc layer owns these counters so each
// queue operation is counted exactly once, however the kernel reaches
// it (task op, pending-send completion, interrupt-handler injection).
func (q *Queue) Observe(set *metrics.Set, sends, recvs metrics.ID) {
	q.met, q.sends, q.recvs = set, sends, recvs
}

// Cap reports the capacity.
func (q *Queue) Cap() int { return len(q.buf) }

// Len reports the number of queued messages.
func (q *Queue) Len() int { return q.n }

// Space reports the number of free slots.
func (q *Queue) Space() int { return len(q.buf) - q.n }

// Push enqueues a message, reporting whether it was accepted. A full
// queue refuses the message and the caller decides the policy — the
// kernel blocks the sending task (§7 queue behavior), a drop-mode link
// or an ISR drops it. Fuzzed producer/consumer graphs legally race
// senders against capacity, so a refused push is an ordinary outcome,
// not a kernel bug.
func (q *Queue) Push(m Msg) bool {
	if q.n == len(q.buf) {
		return false
	}
	q.buf[(q.head+q.n)%len(q.buf)] = m
	q.n++
	q.met.Inc(q.sends)
	return true
}

// Pop dequeues the oldest message. An empty queue reports ok=false and
// the caller blocks the receiving task (or polls again); like Push it
// never panics.
func (q *Queue) Pop() (Msg, bool) {
	if q.n == 0 {
		return Msg{}, false
	}
	m := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.met.Inc(q.recvs)
	return m, true
}
