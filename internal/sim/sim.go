// Package sim implements the deterministic discrete-event engine that
// underlies the EMERALDS kernel simulator.
//
// The engine keeps pending events in a hierarchical timer wheel
// (Varghese & Lauck): six levels of 64 slots each, six bits of the
// event's absolute timestamp per level, covering a 2^36 ns (~69 s)
// horizon with O(1) insert and cancel. Events beyond the horizon wait
// in a small overflow heap and migrate into the wheel as the clock
// approaches them. Each level keeps a one-word occupancy bitmap so the
// next event is found by find-first-set, not by scanning slots.
//
// Events scheduled for the same instant fire in scheduling order (FIFO
// by a monotonically increasing sequence number), which makes every run
// bit-for-bit reproducible regardless of map iteration order or host
// scheduling. Level-0 slots hold only events with identical timestamps
// (the slot index is the timestamp's low six bits and the upper bits
// match the clock), so keeping those lists sorted by (class, seq) is
// sufficient for exact global ordering.
//
// Events are pooled: Schedule/At hand out *Event values from a
// free-list and reclaim them as soon as the event fires or is
// canceled. An *Event is therefore only valid until it fires or is
// canceled — callers must not retain or Cancel it afterwards, as the
// storage may already back an unrelated event.
package sim

import (
	"fmt"
	"math/bits"

	"emeralds/internal/vtime"
)

// Target is the zero-allocation dispatch interface: objects that
// receive events implement Fire and are scheduled with
// Engine.Schedule, avoiding the closure allocation of Engine.At.
// Fire runs with the engine clock already advanced to the event's
// instant; the *Event argument is only valid for the duration of the
// call.
type Target interface {
	Fire(*Event)
}

// Event classes. Completions must observe-before coincident releases:
// a job finishing at exactly the instant of its next release has met
// that release, not overrun it.
const (
	ClassCompletion uint8 = 10 // op/segment completions
	ClassDefault    uint8 = 50 // everything else
)

// Event lifecycle states.
const (
	stateFree     uint8 = iota // on the free-list
	stateWheel                 // linked into a wheel slot
	stateOverflow              // parked in the overflow heap
	stateFiring                // being dispatched right now
)

// Event is a scheduled callback, returned by Schedule/At so callers
// can cancel it before it fires. The pointer is borrowed from the
// engine's pool: it is valid only until the event fires or is
// canceled, after which the engine recycles the storage.
type Event struct {
	when  vtime.Time
	class uint8 // tie-break tier: lower fires first at equal times
	seq   uint64
	label string

	tgt Target // typed dispatch; nil means use fn
	fn  func() // legacy closure dispatch

	// Intrusive links: wheel slot dlist when state == stateWheel,
	// free-list chain (next only) when state == stateFree.
	next, prev  *Event
	level, slot uint8 // wheel position, for O(1) unlink
	hidx        int   // overflow heap index

	state    uint8
	canceled bool
}

// Label returns the debug label given at scheduling time.
func (e *Event) Label() string { return e.label }

// Wheel geometry: 6 levels x 64 slots x 6 bits/level = 36-bit horizon;
// events beyond ~69 virtual seconds out wait in the overflow heap.
const (
	levelBits   = 6
	numSlots    = 1 << levelBits
	slotMask    = numSlots - 1
	numLevels   = 6
	horizonBits = levelBits * numLevels
)

// Wheel slots are head pointers into doubly-linked event lists (one
// word per slot keeps the engine struct — allocated per scenario in
// sweeps — small). Level-0 lists are kept sorted; higher levels are
// unordered, so insertion pushes at the head.
type wheelLevel struct {
	occ   uint64 // bit s set iff slots[s] is non-empty
	slots [numSlots]*Event
}

// Engine is a single-clock discrete-event simulator. It is not safe for
// concurrent use; the EMERALDS kernel drives it from one goroutine.
type Engine struct {
	now     vtime.Time
	seq     uint64
	fired   uint64
	pending int
	stopped bool

	levels    [numLevels]wheelLevel
	overflow  []*Event // min-heap by (when, class, seq), for events past the horizon
	freelist  *Event
	blockSize int // next pool block size (geometric growth, capped)
}

// New returns an engine with the clock at boot time (0).
func New() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() vtime.Time { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many live events are queued. Canceled events are
// reclaimed eagerly and never count.
func (e *Engine) Pending() int { return e.pending }

// before is the global dispatch order: (when, class, seq).
func before(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.seq < b.seq
}

// alloc takes an Event from the pool, growing it block-at-a-time.
// Blocks start small — most scenarios keep only a handful of events in
// flight (one per task plus a completion) — and double up to 64.
func (e *Engine) alloc() *Event {
	if e.freelist == nil {
		n := e.blockSize
		if n == 0 {
			n = 8
		}
		if n < 64 {
			e.blockSize = n * 2
		}
		block := make([]Event, n)
		for i := range block {
			block[i].next = e.freelist
			e.freelist = &block[i]
		}
	}
	ev := e.freelist
	e.freelist = ev.next
	ev.next, ev.prev = nil, nil
	ev.canceled = false
	return ev
}

// free recycles an Event onto the pool, dropping callback references
// so closures and targets become collectable.
func (e *Engine) free(ev *Event) {
	ev.state = stateFree
	ev.tgt = nil
	ev.fn = nil
	ev.label = ""
	ev.prev = nil
	ev.next = e.freelist
	e.freelist = ev
}

// At schedules fn to run at instant t. Scheduling in the past panics:
// that is always a kernel bug, never a recoverable condition.
func (e *Engine) At(t vtime.Time, label string, fn func()) *Event {
	return e.schedule(t, ClassDefault, label, nil, fn)
}

// After schedules fn to run d after the current instant.
func (e *Engine) After(d vtime.Duration, label string, fn func()) *Event {
	return e.schedule(e.now.Add(d), ClassDefault, label, nil, fn)
}

// Schedule is the zero-allocation scheduling path: tgt.Fire(ev) runs
// at instant t. Steady-state it allocates nothing — the Event comes
// from the engine's pool and tgt is typically a long-lived pointer.
// Among events at the same instant, lower classes fire first (FIFO
// within a class).
func (e *Engine) Schedule(t vtime.Time, class uint8, label string, tgt Target) *Event {
	return e.schedule(t, class, label, tgt, nil)
}

func (e *Engine) schedule(t vtime.Time, class uint8, label string, tgt Target, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v, before now %v", label, t, e.now))
	}
	ev := e.alloc()
	ev.when, ev.class, ev.seq = t, class, e.seq
	ev.label, ev.tgt, ev.fn = label, tgt, fn
	e.seq++
	e.place(ev)
	e.pending++
	return ev
}

// place files ev into the wheel level selected by the highest bit in
// which its timestamp differs from the clock, or into the overflow
// heap when that bit is past the horizon.
func (e *Engine) place(ev *Event) {
	d := uint64(ev.when ^ e.now)
	if bits.Len64(d) > horizonBits {
		ev.state = stateOverflow
		e.heapPush(ev)
		return
	}
	lvl := 0
	if d != 0 {
		lvl = (bits.Len64(d) - 1) / levelBits
	}
	s := (uint64(ev.when) >> (uint(lvl) * levelBits)) & slotMask
	ev.state = stateWheel
	ev.level, ev.slot = uint8(lvl), uint8(s)
	head := &e.levels[lvl].slots[s]
	e.levels[lvl].occ |= 1 << s
	if lvl != 0 || *head == nil || before(ev, *head) {
		// Higher levels are unordered (scanned on peek): push at the
		// head. Level 0 with an empty list or a new minimum is the
		// same link operation.
		ev.prev, ev.next = nil, *head
		if *head != nil {
			(*head).prev = ev
		}
		*head = ev
		return
	}
	// All events in a level-0 slot share the same timestamp; keep the
	// list sorted by (class, seq) so dispatch can pop the head. Walk to
	// the first entry ordering after ev and splice in front of it.
	at := *head
	for at.next != nil && before(at.next, ev) {
		at = at.next
	}
	ev.prev, ev.next = at, at.next
	if at.next != nil {
		at.next.prev = ev
	}
	at.next = ev
}

// unlink removes ev from its wheel slot, clearing the occupancy bit
// when the slot empties.
func (e *Engine) unlink(ev *Event) {
	head := &e.levels[ev.level].slots[ev.slot]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		*head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	ev.next, ev.prev = nil, nil
	if *head == nil {
		e.levels[ev.level].occ &^= 1 << ev.slot
	}
}

// cascade empties a level's slot, refiling every event at its current
// (strictly lower) level. Called only on a level's cursor slot — the
// slot matching the clock's digit — whose events, by construction,
// have a zero differing-digit at this level and therefore demote.
func (e *Engine) cascade(lvl int, s uint64) {
	ev := e.levels[lvl].slots[s]
	e.levels[lvl].slots[s] = nil
	e.levels[lvl].occ &^= 1 << s
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		e.place(ev)
		ev = next
	}
}

// drainOverflow migrates overflow events that now fit under the wheel
// horizon. Only the heap top needs checking: a farther event's
// timestamp differs from the clock in a bit at least as high.
func (e *Engine) drainOverflow() {
	for len(e.overflow) > 0 {
		top := e.overflow[0]
		if bits.Len64(uint64(top.when^e.now)) > horizonBits {
			return
		}
		e.heapPop()
		e.place(top)
	}
}

// findMin locates the earliest pending event, cascading any stale
// cursor slots first so every event sits at its true level. It does
// not remove the event. Returns nil when nothing is pending.
func (e *Engine) findMin() *Event {
	e.drainOverflow()
	// Demote events whose level dropped as the clock advanced: an
	// event needs demotion exactly when it sits in the slot matching
	// the clock's current digit at its level. Top-down, so events
	// cascading out of level l land in already-checked lower cursor
	// slots before those are read below. (Demotion from level l can
	// only land in the cursor slot of a level < l, which this loop
	// visits after l.)
	for lvl := numLevels - 1; lvl >= 1; lvl-- {
		cur := (uint64(e.now) >> (uint(lvl) * levelBits)) & slotMask
		if e.levels[lvl].occ&(1<<cur) != 0 {
			e.cascade(lvl, cur)
		}
	}
	// Level 0: lowest occupied slot holds the earliest events (all
	// level-0 timestamps share the clock's upper bits), and its list
	// is sorted, so the head is the global minimum.
	if occ := e.levels[0].occ; occ != 0 {
		s := uint(bits.TrailingZeros64(occ))
		return e.levels[0].slots[s]
	}
	// Otherwise the earliest event is in the lowest occupied level's
	// lowest occupied slot (slots above the cursor only, by the
	// cascade above); the slot is unsorted, so scan it.
	for lvl := 1; lvl < numLevels; lvl++ {
		occ := e.levels[lvl].occ
		if occ == 0 {
			continue
		}
		s := uint(bits.TrailingZeros64(occ))
		best := e.levels[lvl].slots[s]
		for ev := best.next; ev != nil; ev = ev.next {
			if before(ev, best) {
				best = ev
			}
		}
		return best
	}
	if len(e.overflow) > 0 {
		return e.overflow[0]
	}
	return nil
}

// remove detaches a pending event from whichever structure holds it.
func (e *Engine) remove(ev *Event) {
	if ev.state == stateOverflow {
		e.heapRemove(ev)
	} else {
		e.unlink(ev)
	}
	e.pending--
}

// Cancel removes the event from the queue if it has not fired, and
// recycles it eagerly — the pointer must not be used afterwards. It is
// safe to cancel an event twice or after it fired only while the
// pointer is still validly held (the kernel cancels only events it has
// currently armed).
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || (ev.state != stateWheel && ev.state != stateOverflow) {
		return
	}
	e.remove(ev)
	ev.canceled = true
	e.free(ev)
}

// nextEventTime reports the instant of the earliest pending event.
func (e *Engine) nextEventTime() (vtime.Time, bool) {
	ev := e.findMin()
	if ev == nil {
		return 0, false
	}
	return ev.when, true
}

// dispatch fires ev: clock to its instant, callback, recycle.
func (e *Engine) dispatch(ev *Event) {
	e.remove(ev)
	ev.state = stateFiring
	e.now = ev.when
	e.fired++
	if ev.tgt != nil {
		ev.tgt.Fire(ev)
	} else {
		ev.fn()
	}
	e.free(ev)
}

// Step dispatches the single earliest event, advancing the clock to its
// timestamp. It reports false if no events remain or the engine was
// stopped.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	ev := e.findMin()
	if ev == nil {
		return false
	}
	e.dispatch(ev)
	return true
}

// RunUntil dispatches events in order until the clock would pass t or
// the queue drains. The clock is left at min(t, time of last event).
func (e *Engine) RunUntil(t vtime.Time) {
	for !e.stopped {
		ev := e.findMin()
		if ev == nil || ev.when > t {
			break
		}
		e.dispatch(ev)
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// Run dispatches events until the queue drains or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Stop makes the engine refuse further dispatch. Pending events stay
// queued so post-mortem inspection can see them.
func (e *Engine) Stop() { e.stopped = true }

// Overflow heap: a plain binary min-heap by (when, class, seq) for
// events beyond the wheel horizon. Tiny in practice — only far-future
// watchdogs land here — so no fancier structure is warranted.

func (e *Engine) heapPush(ev *Event) {
	ev.hidx = len(e.overflow)
	e.overflow = append(e.overflow, ev)
	e.heapUp(ev.hidx)
}

func (e *Engine) heapPop() *Event {
	return e.heapRemoveAt(0)
}

func (e *Engine) heapRemove(ev *Event) {
	e.heapRemoveAt(ev.hidx)
}

func (e *Engine) heapRemoveAt(i int) *Event {
	h := e.overflow
	n := len(h) - 1
	ev := h[i]
	if i != n {
		h[i] = h[n]
		h[i].hidx = i
	}
	h[n] = nil
	e.overflow = h[:n]
	if i < n {
		e.heapDown(i)
		e.heapUp(i)
	}
	ev.hidx = -1
	return ev
}

func (e *Engine) heapUp(i int) {
	h := e.overflow
	for i > 0 {
		p := (i - 1) / 2
		if !before(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		h[i].hidx, h[p].hidx = i, p
		i = p
	}
}

func (e *Engine) heapDown(i int) {
	h := e.overflow
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && before(h[l], h[min]) {
			min = l
		}
		if r < n && before(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		h[i].hidx, h[min].hidx = i, min
		i = min
	}
}
