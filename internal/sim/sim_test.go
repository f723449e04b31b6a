package sim

import (
	"testing"

	"emeralds/internal/vtime"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(30, "c", func() { order = append(order, 3) })
	e.At(10, "a", func() { order = append(order, 1) })
	e.At(20, "b", func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("clock = %v", e.Now())
	}
	if e.Fired() != 3 {
		t.Errorf("fired = %d", e.Fired())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, "tie", func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(10, "x", func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double-cancel is a no-op
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if !ev.canceled {
		t.Error("Cancel did not mark the event canceled")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := New()
	ev := e.At(10, "x", func() {})
	e.Run()
	e.Cancel(ev) // must not panic or corrupt the heap
	e.At(20, "y", func() {})
	e.Run()
	if e.Now() != 20 {
		t.Errorf("clock = %v", e.Now())
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New()
	var got []string
	evs := map[string]*Event{}
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		name := name
		evs[name] = e.After(vtime.Duration(len(got)+10), name, func() { got = append(got, name) })
	}
	e.Cancel(evs["c"])
	e.Run()
	for _, g := range got {
		if g == "c" {
			t.Error("canceled c fired")
		}
	}
	if len(got) != 4 {
		t.Errorf("got %v", got)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, "x", func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e.At(5, "past", func() {})
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []int
	e.At(10, "a", func() { fired = append(fired, 10) })
	e.At(20, "b", func() { fired = append(fired, 20) })
	e.At(30, "c", func() { fired = append(fired, 30) })
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Errorf("fired %v", fired)
	}
	if e.Now() != 20 {
		t.Errorf("clock = %v", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 3 {
		t.Errorf("fired %v", fired)
	}
	if e.Now() != 100 {
		t.Errorf("clock should land on the horizon: %v", e.Now())
	}
}

func TestEventsScheduledDuringDispatch(t *testing.T) {
	e := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(10, "tick", tick)
		}
	}
	e.At(0, "tick", tick)
	e.Run()
	if count != 5 {
		t.Errorf("count = %d", count)
	}
	if e.Now() != 40 {
		t.Errorf("clock = %v", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	e.At(10, "a", func() { count++; e.Stop() })
	e.At(20, "b", func() { count++ })
	e.Run()
	if count != 1 {
		t.Errorf("count = %d", count)
	}
	if !e.stopped {
		t.Error("Stop did not mark the engine stopped")
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, stopped engines keep their queue", e.Pending())
	}
}

func TestNextEventTime(t *testing.T) {
	e := New()
	if _, ok := e.nextEventTime(); ok {
		t.Error("empty engine reported a next event")
	}
	e.At(42, "x", func() {})
	if at, ok := e.nextEventTime(); !ok || at != 42 {
		t.Errorf("next = %v ok=%v", at, ok)
	}
}

func TestLabel(t *testing.T) {
	e := New()
	ev := e.At(1, "hello", func() {})
	if ev.Label() != "hello" || ev.when != 1 {
		t.Errorf("label=%q when=%v", ev.Label(), ev.when)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		e := New()
		var order []int
		for i := 0; i < 100; i++ {
			i := i
			e.At(vtime.Time(i%7), "x", func() { order = append(order, i) })
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
