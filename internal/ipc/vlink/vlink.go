// Package vlink is the native (runnable, not simulated) counterpart of
// the kernel's virtual-link queues: a bounded lock-free multi-producer
// multi-consumer ring in the style of Virtual-Link's cache-conscious
// MPMC channels. The design is the classic sequence-stamped-cell array
// queue: every cell carries an atomic sequence number that encodes, for
// the producer and consumer whose ticket lands on it, whether the cell
// is free to write (seq == ticket), ready to read (seq == ticket+1), or
// still owned by a slower peer from a previous lap. Producers and
// consumers claim tickets with a single CAS on their shared cursor and
// then synchronize only through their cell's stamp, so disjoint
// operations never contend and the queue is lock-free: a stalled
// producer blocks only the consumer of its own cell, never the ring.
//
// Steady-state operation performs zero allocations (the cell array is
// laid out once at construction), which the AllocsPerRun gate in
// vlink_test.go pins. The simulated kernel object (the virtual-link
// kind in internal/kernel/link.go) mirrors this structure's O(1) cost
// profile in virtual time; this package is the one that real goroutines
// hammer under -race.
package vlink

import (
	"sync/atomic"

	"emeralds/internal/ipc"
)

// cell is one ring slot. The sequence stamp is padded apart from its
// neighbours so producers spinning on adjacent cells do not false-share
// a cache line (64-byte lines; the stamp plus message is 24 bytes, pad
// to 64).
type cell struct {
	seq atomic.Uint64
	msg ipc.Msg
	_   [64 - 24]byte
}

// Ring is a bounded lock-free MPMC queue of ipc.Msg. The zero value is
// not usable; construct with New.
type Ring struct {
	mask  uint64
	cells []cell
	_     [64 - 32]byte // keep the hot cursors off the header line
	enq   atomic.Uint64
	_     [64 - 8]byte
	deq   atomic.Uint64
	_     [64 - 8]byte
}

// New returns a ring holding at most capacity messages. Capacity is
// rounded up to the next power of two (minimum 2) so cell indexing is a
// mask, not a modulo.
func New(capacity int) *Ring {
	c := 2
	for c < capacity {
		c <<= 1
	}
	r := &Ring{mask: uint64(c - 1), cells: make([]cell, c)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// Cap reports the ring's (rounded) capacity.
func (r *Ring) Cap() int { return len(r.cells) }

// Len reports the approximate number of queued messages. It is exact
// when the ring is quiescent; under concurrent traffic it is a snapshot
// of the cursor distance, clamped to the capacity (consumers that
// advance between the two cursor reads make the raw distance wrap).
func (r *Ring) Len() int {
	return int(min(r.enq.Load()-r.deq.Load(), uint64(len(r.cells))))
}

// TryEnqueue appends m, reporting false if the ring is full. It never
// blocks: a false return is immediate.
func (r *Ring) TryEnqueue(m ipc.Msg) (ok bool) {
	var done bool
	for !done {
		done, ok = r.enqueueAt(r.enq.Load(), m)
	}
	return ok
}

// enqueueAt is one attempt of TryEnqueue at ticket pos, the producer
// cursor as last read. It is done when it published m or found the ring
// full; otherwise another producer claimed pos first and the caller
// retries at the cursor's new value.
func (r *Ring) enqueueAt(pos uint64, m ipc.Msg) (done, ok bool) {
	c := &r.cells[pos&r.mask]
	seq := c.seq.Load()
	if seq == pos && r.enq.CompareAndSwap(pos, pos+1) {
		// Cell free for this lap and the ticket is ours: publish.
		c.msg = m
		c.seq.Store(pos + 1)
		return true, true
	}
	// seq < pos: the cell still holds last lap's message, so the ring is
	// full.
	return seq < pos, false
}

// TryDequeue removes the oldest message, reporting false if the ring is
// empty. It never blocks.
func (r *Ring) TryDequeue() (m ipc.Msg, ok bool) {
	var done bool
	for !done {
		done, ok = r.dequeueAt(r.deq.Load(), &m)
	}
	return m, ok
}

// dequeueAt is one attempt of TryDequeue at ticket pos, the consumer
// cursor as last read. It is done when it took a message into m or found
// the ring empty; otherwise another consumer claimed pos first and the
// caller retries at the cursor's new value.
func (r *Ring) dequeueAt(pos uint64, m *ipc.Msg) (done, ok bool) {
	c := &r.cells[pos&r.mask]
	seq := c.seq.Load()
	if seq == pos+1 && r.deq.CompareAndSwap(pos, pos+1) {
		// Cell published for this lap and the ticket is ours: take it.
		*m = c.msg
		c.seq.Store(pos + r.mask + 1)
		return true, true
	}
	// seq <= pos: the producer has not published pos yet, so the ring is
	// empty.
	return seq <= pos, false
}
