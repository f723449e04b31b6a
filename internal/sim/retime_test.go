package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"emeralds/internal/vtime"
)

// retimeRig drives one engine with a random event stream. Two rigs
// built from the same seed make the same choices as long as their
// engines dispatch the same events, so a divergence in dispatch order
// shows up as a difference in their logs.
type retimeRig struct {
	e      *Engine
	rng    *rand.Rand
	retime bool // move events with Retime, not Cancel plus Schedule
	hs     []*rigHandle
	log    []string
	budget int // events the stream may still create
}

// rigHandle is one logical event: its current *Event while pending.
type rigHandle struct {
	r     *retimeRig
	label string
	class uint8
	ev    *Event
}

func (h *rigHandle) Fire(ev *Event) {
	r := h.r
	r.log = append(r.log, fmt.Sprintf("%s@%d", ev.Label(), int64(r.e.Now())))
	h.ev = nil
	for n := r.rng.Intn(3); n > 0; n-- {
		r.op()
	}
}

// when draws an instant no earlier than the clock: a tie with the clock
// or with a pending event, or an offset into level 0, the middle
// levels, the top levels, or past the 2^36 ns horizon.
func (r *retimeRig) when() vtime.Time {
	now := r.e.Now()
	switch r.rng.Intn(7) {
	case 0:
		return now
	case 1:
		if h := r.pending(); h != nil {
			return h.ev.when
		}
		return now
	case 2:
		return now.Add(vtime.Duration(r.rng.Int63n(64)))
	case 3:
		return now.Add(vtime.Duration(r.rng.Int63n(1 << 20)))
	case 4:
		return now.Add(vtime.Duration(r.rng.Int63n(1 << 36)))
	case 5:
		if h := r.pending(); h != nil {
			// A charge-sized stretch of a pending event.
			return h.ev.when.Add(vtime.Duration(r.rng.Int63n(300)))
		}
		return now
	default:
		return now.Add(1<<36 + vtime.Duration(r.rng.Int63n(1<<40)))
	}
}

// pending picks a random pending handle, or nil.
func (r *retimeRig) pending() *rigHandle {
	if len(r.hs) == 0 {
		return nil
	}
	h := r.hs[r.rng.Intn(len(r.hs))]
	if h.ev == nil {
		return nil
	}
	return h
}

func (r *retimeRig) add() {
	if r.budget == 0 {
		return
	}
	r.budget--
	class := ClassCompletion
	if r.rng.Intn(2) == 0 {
		class = ClassDefault
	}
	h := &rigHandle{r: r, label: fmt.Sprintf("e%d", len(r.hs)), class: class}
	r.hs = append(r.hs, h)
	h.ev = r.e.Schedule(r.when(), class, h.label, h)
}

// op applies one random operation: schedule, move, cancel or step.
func (r *retimeRig) op() {
	switch k := r.rng.Intn(10); {
	case k < 3:
		r.add()
	case k < 8:
		if h := r.pending(); h != nil {
			t := r.when()
			if r.retime {
				r.e.Retime(h.ev, t)
			} else {
				r.e.Cancel(h.ev)
				h.ev = r.e.Schedule(t, h.class, h.label, h)
			}
		}
	case k < 9:
		if h := r.pending(); h != nil {
			r.e.Cancel(h.ev)
			h.ev = nil
		}
	default:
		r.e.Step()
	}
}

// TestRetimeMatchesCancelSchedule runs random event streams through two
// engines, one moving events with Retime and one with Cancel followed
// by Schedule, and requires the same labels to fire at the same
// instants in the same order, with equal Fired and Pending throughout.
func TestRetimeMatchesCancelSchedule(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		a := &retimeRig{e: New(), rng: rand.New(rand.NewSource(seed)), retime: true, budget: 400}
		b := &retimeRig{e: New(), rng: rand.New(rand.NewSource(seed)), budget: 400}
		for i := 0; i < 600; i++ {
			a.op()
			b.op()
			if a.e.Fired() != b.e.Fired() || a.e.Pending() != b.e.Pending() || a.e.Now() != b.e.Now() {
				t.Fatalf("seed %d, op %d: fired %d/%d, pending %d/%d, now %v/%v", seed, i,
					a.e.Fired(), b.e.Fired(), a.e.Pending(), b.e.Pending(), a.e.Now(), b.e.Now())
			}
		}
		a.e.Run()
		b.e.Run()
		if len(a.log) != len(b.log) || a.e.Fired() != b.e.Fired() || a.e.Pending() != 0 || b.e.Pending() != 0 {
			t.Fatalf("seed %d: fired %d/%d events (logged %d/%d), pending %d/%d", seed,
				a.e.Fired(), b.e.Fired(), len(a.log), len(b.log), a.e.Pending(), b.e.Pending())
		}
		for i := range a.log {
			if a.log[i] != b.log[i] {
				t.Fatalf("seed %d: dispatch %d is %s with Retime, %s with Cancel+Schedule", seed, i, a.log[i], b.log[i])
			}
		}
	}
}

// TestRetimeNotPendingPanics: retiming an event that has fired, or
// into the past, is a caller bug, as scheduling in the past is.
func TestRetimeNotPendingPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	e := New()
	tt := &tickTarget{e: e}
	fired := e.Schedule(10, ClassDefault, "a", tt)
	e.Step()
	mustPanic("retime after firing", func() { e.Retime(fired, 100) })
	ev := e.Schedule(50, ClassDefault, "b", tt)
	mustPanic("retime into the past", func() { e.Retime(ev, e.Now()-1) })
}
