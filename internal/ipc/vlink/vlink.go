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
// of the cursor distance.
func (r *Ring) Len() int {
	d := r.enq.Load() - r.deq.Load()
	if d > uint64(len(r.cells)) {
		d = uint64(len(r.cells))
	}
	return int(d)
}

// TryEnqueue appends m, reporting false if the ring is full. It never
// blocks: a false return is immediate.
func (r *Ring) TryEnqueue(m ipc.Msg) bool {
	pos := r.enq.Load()
	for {
		c := &r.cells[pos&r.mask]
		seq := c.seq.Load()
		switch {
		case seq == pos:
			// Cell free for this lap: claim the ticket.
			if r.enq.CompareAndSwap(pos, pos+1) {
				c.msg = m
				c.seq.Store(pos + 1)
				return true
			}
			pos = r.enq.Load()
		case seq < pos:
			// Cell still holds last lap's message: full.
			return false
		default:
			// Another producer already claimed pos; reload.
			pos = r.enq.Load()
		}
	}
}

// TryDequeue removes the oldest message, reporting false if the ring is
// empty. It never blocks.
func (r *Ring) TryDequeue() (ipc.Msg, bool) {
	pos := r.deq.Load()
	for {
		c := &r.cells[pos&r.mask]
		seq := c.seq.Load()
		switch {
		case seq == pos+1:
			// Cell published for this lap: claim the ticket.
			if r.deq.CompareAndSwap(pos, pos+1) {
				m := c.msg
				c.seq.Store(pos + r.mask + 1)
				return m, true
			}
			pos = r.deq.Load()
		case seq <= pos:
			// Producer has not published pos yet: empty.
			return ipc.Msg{}, false
		default:
			// Another consumer already claimed pos; reload.
			pos = r.deq.Load()
		}
	}
}
