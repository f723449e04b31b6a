package sim

import (
	"math/rand"
	"sort"
	"testing"

	"emeralds/internal/vtime"
)

// TestWheelMatchesReferenceOrder drives the timer wheel and a sorted
// reference model with the same randomized schedule — times spanning
// every wheel level plus the overflow heap, scheduled both up front and
// from inside callbacks — and requires the exact same fire order.
func TestWheelMatchesReferenceOrder(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		e := New()

		type ref struct {
			when  vtime.Time
			class uint8
			seq   int
		}
		var want []ref
		var got []int
		seq := 0

		randWhen := func(now vtime.Time) vtime.Time {
			// Mix near, mid, far, and past-horizon offsets.
			var d int64
			switch rng.Intn(4) {
			case 0:
				d = rng.Int63n(64) // level 0
			case 1:
				d = rng.Int63n(1 << 20) // mid levels
			case 2:
				d = rng.Int63n(1 << 47) // top wheel levels
			default:
				d = (1 << 48) + rng.Int63n(1<<50) // overflow heap
			}
			return now.Add(vtime.Duration(d))
		}
		classes := []uint8{ClassCompletion, ClassDefault}

		var add func(depth int)
		add = func(depth int) {
			when := randWhen(e.Now())
			if depth > 0 && when == e.Now() {
				// A sort-based oracle cannot model scheduling at the
				// current instant from inside dispatch (same-instant
				// events of a later class may already have fired);
				// keep nested adds strictly in the future.
				when = when.Add(1)
			}
			class := classes[rng.Intn(2)]
			id := seq
			seq++
			want = append(want, ref{when, class, id})
			e.Schedule(when, class, "p", closure(func() {
				got = append(got, id)
				if depth < 2 && rng.Intn(3) == 0 {
					add(depth + 1) // schedule more from inside dispatch
				}
			}))
		}
		for i := 0; i < 200; i++ {
			add(0)
		}
		e.Run()

		// Reference order: stable sort by (when, class), then seq —
		// seq equals insertion order only for the up-front batch, so
		// replay the nested additions by sorting the record the same
		// way the engine promises to fire: (when, class, seq).
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].when != want[j].when {
				return want[i].when < want[j].when
			}
			if want[i].class != want[j].class {
				return want[i].class < want[j].class
			}
			return want[i].seq < want[j].seq
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d of %d events", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i].seq {
				t.Fatalf("trial %d: position %d fired %d, want %d", trial, i, got[i], want[i].seq)
			}
		}
	}
}

// TestWheelInterleavedCancel cancels a random half of a randomized
// schedule and checks the survivors still fire in exact order.
func TestWheelInterleavedCancel(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(1000 + int64(trial)))
		e := New()
		type rec struct {
			when vtime.Time
			id   int
		}
		var live []rec
		var got []int
		for i := 0; i < 300; i++ {
			when := vtime.Time(rng.Int63n(1 << 30))
			id := i
			ev := e.At(when, "c", func() { got = append(got, id) })
			if rng.Intn(2) == 0 {
				e.Cancel(ev)
			} else {
				live = append(live, rec{when, id})
			}
		}
		e.Run()
		sort.SliceStable(live, func(i, j int) bool { return live[i].when < live[j].when })
		if len(got) != len(live) {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(got), len(live))
		}
		for i := range got {
			if got[i] != live[i].id {
				t.Fatalf("trial %d: position %d fired %d, want %d", trial, i, got[i], live[i].id)
			}
		}
	}
}

// TestFarFutureOverflow exercises the overflow heap: events beyond the
// 2^48 ns wheel horizon must still fire, in order, after migrating
// into the wheel as the clock approaches.
func TestFarFutureOverflow(t *testing.T) {
	e := New()
	var got []int
	e.At(vtime.Time(1)<<52, "far2", func() { got = append(got, 2) })
	e.At(vtime.Time(1)<<51, "far1", func() { got = append(got, 1) })
	e.At(100, "near", func() { got = append(got, 0) })
	if at, ok := e.nextEventTime(); !ok || at != 100 {
		t.Fatalf("next = %v, %v", at, ok)
	}
	e.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != vtime.Time(1)<<52 {
		t.Fatalf("clock = %v", e.Now())
	}
}

// TestCancelReclaimsEagerly schedules and cancels 1e5 events and
// asserts bounded memory: after pool warm-up a schedule/cancel pair
// must allocate nothing, because canceled events return to the
// free-list immediately instead of lingering until their deadline.
func TestCancelReclaimsEagerly(t *testing.T) {
	e := New()
	// Warm the pool past the block size.
	var evs []*Event
	for i := 0; i < 128; i++ {
		evs = append(evs, e.At(vtime.Time(1+i), "warm", func() {}))
	}
	for _, ev := range evs {
		e.Cancel(ev)
	}
	allocs := testing.AllocsPerRun(100000, func() {
		ev := e.At(12345, "churn", func() {})
		e.Cancel(ev)
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocates %v objects per op, want 0", allocs)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after cancel churn", e.Pending())
	}
}

// tickTarget is the steady-state dispatch workload for the
// zero-allocation gate: each Fire re-arms itself via the typed
// Schedule path.
type tickTarget struct {
	e *Engine
	n int
}

func (tt *tickTarget) Fire(ev *Event) {
	tt.n++
	tt.e.Schedule(tt.e.Now().Add(10), ClassDefault, "tick", tt)
}

// TestDispatchZeroAlloc pins the hot path: once the pool is warm,
// scheduling and dispatching events through Target.Fire performs zero
// allocations per event.
func TestDispatchZeroAlloc(t *testing.T) {
	e := New()
	tt := &tickTarget{e: e}
	e.Schedule(10, ClassDefault, "tick", tt)
	for i := 0; i < 100; i++ { // warm-up: pool block + any lazy init
		e.Step()
	}
	allocs := testing.AllocsPerRun(10000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("dispatch allocates %v objects per event, want 0", allocs)
	}
}

// TestRetimeZeroAlloc pins the charge path: moving a pending event,
// within its slot or across levels and slots, allocates nothing and
// keeps both the pointer and the pending count.
func TestRetimeZeroAlloc(t *testing.T) {
	e := New()
	tt := &tickTarget{e: e}
	ev := e.Schedule(1<<20, ClassCompletion, "seg", tt)
	when := vtime.Time(1 << 20)
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		if i++; i%8 == 0 {
			e.Retime(ev, vtime.Time(i%64)) // into level 0 and back
			return
		}
		when += 7
		e.Retime(ev, when)
	})
	if allocs != 0 {
		t.Fatalf("retime allocates %v objects per call, want 0", allocs)
	}
	if e.Pending() != 1 || ev.state != stateWheel || ev.Label() != "seg" {
		t.Fatalf("pending %d, state %d, label %q after retimes", e.Pending(), ev.state, ev.Label())
	}
}

// TestAdvanceCursorDemotion regression-tests cascade-on-cursor: an
// event placed at a high level must demote correctly when the clock
// advances right up to it and new same-instant events join at level 0.
func TestAdvanceCursorDemotion(t *testing.T) {
	e := New()
	var got []int
	target := vtime.Time(1 << 20)
	e.At(target, "high", func() { got = append(got, 0) })
	e.now = target - 5 // clock now shares upper bits with target
	e.At(target, "low", func() { got = append(got, 1) })
	e.Run()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("order = %v (high-level event must cascade ahead of later same-instant event)", got)
	}
	if e.Now() != target {
		t.Fatalf("clock = %v", e.Now())
	}
}
