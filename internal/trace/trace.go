// Package trace records kernel execution events into a bounded ring
// buffer for debugging, validation tests, and the example programs'
// schedule dumps. The ring's memory grows with the events recorded, up
// to its capacity: recording is amortized O(1) per event and allocates
// nothing once the ring is full.
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
	// kindNames and the kernel's tracekinds.go aliases are locked to it
	// by tests, so a new Kind cannot land without a printable name.
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
	ring    []Event // retained events; grows on demand up to limit
	limit   int     // capacity: the most events the ring retains
	next    int     // once full, the slot the next event overwrites
	wrapped bool
	total   uint64
}

// firstRing is the length of the backing array a log allocates on its
// first event; each time it fills, it doubles, up to the capacity.
const firstRing = 256

// New returns a log holding the most recent cap events. The capacity is
// a bound, not an up-front allocation: the backing array grows with the
// events recorded, so a short run with a large capacity costs only what
// it records. Add is amortized O(1) and allocates nothing once the ring
// is full.
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
	e := Event{At: at, Kind: kind, Task: taskName, Detail: detail, Dur: dur, CPU: cpu}
	if len(l.ring) < l.limit {
		if len(l.ring) == cap(l.ring) {
			l.grow()
		}
		l.ring = append(l.ring, e)
		return
	}
	l.ring[l.next] = e
	if l.next++; l.next == len(l.ring) {
		l.next = 0
	}
	l.wrapped = true
}

// grow doubles the backing array, starting from firstRing and never
// past the capacity.
func (l *Log) grow() {
	ring := make([]Event, len(l.ring), min(max(2*cap(l.ring), firstRing), l.limit))
	copy(ring, l.ring)
	l.ring = ring
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
	if l == nil || !l.wrapped {
		return 0
	}
	return l.total - uint64(len(l.ring))
}

// Events returns the retained events in chronological order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	older, newer := l.segments()
	out := make([]Event, 0, len(older)+len(newer))
	return append(append(out, older...), newer...)
}

// segments returns the retained events of a non-nil log in place,
// without copying: the chronological sequence is older followed by
// newer.
func (l *Log) segments() (older, newer []Event) {
	if !l.wrapped {
		return l.ring, nil
	}
	return l.ring[l.next:], l.ring[:l.next]
}

// Filter returns retained events of the given kind.
func (l *Log) Filter(kind Kind) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}
