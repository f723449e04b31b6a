// Package trace records kernel execution events into a bounded ring
// buffer for debugging, validation tests, and the example programs'
// schedule dumps. The ring is stored in fixed blocks of blockLen events,
// each allocated when recording first reaches it and never copied or
// moved: recording is O(1) per event, a log allocates what it keeps
// rounded up to one block, and it allocates nothing once the ring is
// full.
package trace

import (
	"fmt"

	"emeralds/internal/vtime"
)

// Kind classifies a trace event.
type Kind uint8

const (
	Release Kind = iota
	Dispatch
	Preempt
	BlockEv
	UnblockEv
	Complete
	Miss
	Overrun
	SemAcquire
	SemBlockWait
	SemRelease
	SemHintPI
	SemGrant
	Inherit
	Restore
	Signal
	MsgSend
	MsgRecv
	StateWrite
	StateRead
	Interrupt
	Fault
	Idle
	TaskInfo
	// Migrate ends a task's occupancy on its source CPU (its Dur payload
	// carries the occupancy's overhead, like Preempt's); MigrateDone
	// marks the arrival on the target CPU after the charged in-transit
	// window. Neither is emitted by single-CPU runs.
	Migrate
	MigrateDone
	// VLinkSend/VLinkRecv are one event per message through a virtual
	// link (MPMC queue); batched sends emit one per enqueued message so
	// the synchronizability checker can match them individually. Never
	// emitted by scenarios without vlinks.
	VLinkSend
	VLinkRecv

	// NumKinds is the number of defined kinds (sentinel, not a Kind).
	// kindNames is locked to it by a test, so a new Kind cannot land
	// without a printable name.
	NumKinds
)

var kindNames = [NumKinds]string{
	"release", "dispatch", "preempt", "block", "unblock",
	"complete", "MISS", "overrun",
	"sem-acquire", "sem-block", "sem-release", "sem-hint-pi", "sem-grant",
	"inherit", "restore", "signal",
	"msg-send", "msg-recv", "state-write", "state-read",
	"interrupt", "FAULT", "idle", "task-info",
	"migrate", "migrate-done",
	"vlink-send", "vlink-recv",
}

// The literal above must fill the array exactly: a Kind added without a
// name would leave a trailing "" and fail TestKindNamesExhaustive.

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded kernel event.
type Event struct {
	At     vtime.Time
	Kind   Kind
	Task   string
	Detail string
	// Dur carries the event's duration payload. On the events that end
	// a CPU occupancy (Preempt, BlockEv, SemBlockWait, Complete, Miss)
	// it is the kernel overhead consumed during that occupancy — the
	// exact amount by which the occupancy's wall span exceeds the useful
	// compute it delivered. Zero elsewhere. Package attrib relies on it
	// for the exact response-time partition.
	Dur vtime.Duration
	// CPU is the processor the event happened on. Always 0 in
	// single-CPU runs, which therefore serialize without it.
	CPU int
}

func (e Event) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("%12v %-12s %s", e.At, e.Kind, e.Task)
	}
	return fmt.Sprintf("%12v %-12s %-10s %s", e.At, e.Kind, e.Task, e.Detail)
}

// Log is a bounded ring of events. A nil *Log discards everything, so
// callers never need to guard their Add calls.
type Log struct {
	// blocks holds the ring's slots, blockLen to a block (the last block
	// ends at the capacity), allocated as recording reaches them.
	blocks [][]Event
	limit  int // capacity: the most events the ring retains
	n      int // events retained
	next   int // the slot the next event goes into
	total  uint64
}

// A block holds blockLen events: 32 kB, the largest size the Go
// allocator serves from its size classes rather than as a large object.
const (
	blockShift = 9
	blockLen   = 1 << blockShift
	blockMask  = blockLen - 1
)

// New returns a log holding the most recent cap events. The capacity is
// a bound, not an up-front allocation: blocks are allocated as events
// reach them, so a short run with a large capacity costs only what it
// records. Add is O(1) and allocates nothing once the ring is full.
func New(cap int) *Log {
	if cap <= 0 {
		cap = 1024
	}
	return &Log{limit: cap}
}

// Add records an event.
func (l *Log) Add(at vtime.Time, kind Kind, taskName, detail string) {
	l.AddDurCPU(at, kind, taskName, detail, 0, 0)
}

// AddDur records an event with a duration payload (see Event.Dur).
func (l *Log) AddDur(at vtime.Time, kind Kind, taskName, detail string, dur vtime.Duration) {
	l.AddDurCPU(at, kind, taskName, detail, dur, 0)
}

// AddCPU records an event on a specific CPU.
func (l *Log) AddCPU(at vtime.Time, kind Kind, taskName, detail string, cpu int) {
	l.AddDurCPU(at, kind, taskName, detail, 0, cpu)
}

// AddDurCPU records an event with both a duration payload and a CPU.
func (l *Log) AddDurCPU(at vtime.Time, kind Kind, taskName, detail string, dur vtime.Duration, cpu int) {
	if l == nil {
		return
	}
	l.total++
	i := l.next
	if l.next++; l.next == l.limit {
		l.next = 0
	}
	if l.n < l.limit {
		l.n++
		if i>>blockShift == len(l.blocks) {
			l.blocks = append(l.blocks, make([]Event, min(blockLen, l.limit-i)))
		}
	}
	e := &l.blocks[i>>blockShift][i&blockMask]
	// Field stores, not a copy of an Event literal: the copy reads the
	// literal back in words that span its narrower stores, which stalls
	// store forwarding on every event.
	e.At, e.Kind, e.Task, e.Detail, e.Dur, e.CPU = at, kind, taskName, detail, dur, cpu
}

// Total reports how many events were recorded over the log's lifetime
// (including ones that have rotated out of the ring).
func (l *Log) Total() uint64 {
	if l == nil {
		return 0
	}
	return l.total
}

// Dropped reports how many events have been overwritten by newer ones
// — the ring holds the most recent cap events, so a non-zero count
// means Events() is a truncated view of the run. Consumers that need a
// complete trace (the attribution engine, the Perfetto export) must
// check it: a truncated trace silently masquerading as a complete one
// is how a profiling layer lies.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.total - uint64(l.n)
}

// Events returns the retained events in chronological order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	out := make([]Event, 0, l.n)
	for _, seg := range l.segments() {
		out = append(out, seg...)
	}
	return out
}

// segments returns the retained events in place, without copying, as
// runs of consecutive slots in chronological order: from the oldest
// event to the end of its block, each later block in ring order, and
// the newest block up to the newest event. A nil log has none.
func (l *Log) segments() [][]Event {
	if l == nil {
		return nil
	}
	at := 0 // the oldest event's slot
	if l.n == l.limit {
		at = l.next
	}
	segs := make([][]Event, 0, len(l.blocks)+1)
	for left := l.n; left > 0; {
		seg := l.blocks[at>>blockShift][at&blockMask:]
		seg = seg[:min(len(seg), left)]
		segs = append(segs, seg)
		left -= len(seg)
		if at += len(seg); at == l.limit {
			at = 0
		}
	}
	return segs
}

// Filter returns retained events of the given kind.
func (l *Log) Filter(kind Kind) []Event {
	var out []Event
	for _, seg := range l.segments() {
		for i := range seg {
			if seg[i].Kind == kind {
				out = append(out, seg[i])
			}
		}
	}
	return out
}
