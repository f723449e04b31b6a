package trace

import (
	"fmt"
	"strings"
	"testing"

	"emeralds/internal/vtime"
)

func TestAddAndEvents(t *testing.T) {
	l := New(10)
	l.Add(1, Release, "a", "")
	l.Add(2, Dispatch, "a", "")
	evs := l.Events()
	if len(evs) != 2 || evs[0].Kind != Release || evs[1].Kind != Dispatch {
		t.Errorf("events = %v", evs)
	}
	if l.Total() != 2 {
		t.Errorf("total = %d", l.Total())
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	l := New(4)
	for i := 0; i < 10; i++ {
		l.Add(vtime.Time(i), Dispatch, "x", "")
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d", len(evs))
	}
	for i, e := range evs {
		if e.At != vtime.Time(6+i) {
			t.Errorf("event %d at %v, want %v (chronological, newest window)", i, e.At, vtime.Time(6+i))
		}
	}
	if l.Total() != 10 {
		t.Errorf("total = %d", l.Total())
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add(0, Miss, "x", "") // must not panic
	if l.Events() != nil || l.Total() != 0 {
		t.Error("nil log should be empty")
	}
}

func TestFilter(t *testing.T) {
	l := New(16)
	l.Add(1, Release, "a", "")
	l.Add(2, Miss, "b", "")
	l.Add(3, Release, "c", "")
	rel := l.Filter(Release)
	if len(rel) != 2 || rel[0].Task != "a" || rel[1].Task != "c" {
		t.Errorf("filter = %v", rel)
	}
	if len(l.Filter(Fault)) != 0 {
		t.Error("empty filter should be empty")
	}
}

// TestDump checks the text dump emsim -trace prints: a log's retained
// events, one Event.String line each.
func TestDump(t *testing.T) {
	l := New(4)
	l.Add(vtime.Time(vtime.Millisecond), SemAcquire, "enc", "cfg")
	var b strings.Builder
	for _, e := range l.Events() {
		fmt.Fprintln(&b, e)
	}
	out := b.String()
	for _, frag := range []string{"sem-acquire", "enc", "cfg", "1.000ms"} {
		if !strings.Contains(out, frag) {
			t.Errorf("dump %q missing %q", out, frag)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := Release; k <= Idle; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d unnamed", k)
		}
	}
	if !strings.HasPrefix(Kind(99).String(), "kind(") {
		t.Error("unknown kind should fall back")
	}
}

func TestDefaultCapacity(t *testing.T) {
	l := New(0)
	for i := 0; i < 2000; i++ {
		l.Add(vtime.Time(i), Dispatch, "x", "")
	}
	if len(l.Events()) != 1024 {
		t.Errorf("default cap retained %d", len(l.Events()))
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: vtime.Time(vtime.Millisecond), Kind: Miss, Task: "tau05"}
	if !strings.Contains(e.String(), "MISS") || !strings.Contains(e.String(), "tau05") {
		t.Errorf("event string %q", e.String())
	}
}

// fixedRing is the reference ring: its whole capacity allocated up
// front, the newest cap events kept.
type fixedRing struct {
	slots []Event
	total int
}

func (r *fixedRing) add(e Event) {
	r.slots[r.total%len(r.slots)] = e
	r.total++
}

func (r *fixedRing) events() []Event {
	if r.total <= len(r.slots) {
		return r.slots[:r.total]
	}
	at := r.total % len(r.slots)
	return append(append([]Event{}, r.slots[at:]...), r.slots[:at]...)
}

// TestRingGrowthBoundaries: a ring that grows on demand keeps exactly
// what a fixed ring of the same capacity keeps, at and around the
// capacities where growth starts, doubles, is clipped and wraps, and
// its backing array never exceeds the capacity.
func TestRingGrowthBoundaries(t *testing.T) {
	for _, capacity := range []int{1, 2, 255, 256, 257, 4096} {
		for _, n := range []int{capacity - 1, capacity, capacity + 1, 3 * capacity} {
			l := New(capacity)
			ref := &fixedRing{slots: make([]Event, capacity)}
			for i := 0; i < n; i++ {
				e := Event{At: vtime.Time(i), Kind: Kind(i % int(NumKinds)), Task: "t", CPU: i % 3}
				l.AddDurCPU(e.At, e.Kind, e.Task, e.Detail, e.Dur, e.CPU)
				ref.add(e)
				if c := cap(l.ring); c > capacity {
					t.Fatalf("cap %d after %d events: backing array holds %d", capacity, i+1, c)
				}
			}
			got, want := l.Events(), ref.events()
			if len(got) != len(want) {
				t.Fatalf("cap %d, %d events: retained %d, want %d", capacity, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cap %d, %d events: event %d = %+v, want %+v", capacity, n, i, got[i], want[i])
				}
			}
			if l.Total() != uint64(n) {
				t.Errorf("cap %d, %d events: total %d", capacity, n, l.Total())
			}
			if want := uint64(max(n-capacity, 0)); l.Dropped() != want {
				t.Errorf("cap %d, %d events: dropped %d, want %d", capacity, n, l.Dropped(), want)
			}
		}
	}
}

// TestLogAddZeroAllocWhenFull: once the ring holds its capacity, Add
// overwrites in place without allocating.
func TestLogAddZeroAllocWhenFull(t *testing.T) {
	l := New(300)
	for i := 0; i < 300; i++ {
		l.Add(vtime.Time(i), Dispatch, "x", "")
	}
	at := vtime.Time(300)
	if allocs := testing.AllocsPerRun(1000, func() {
		l.AddDurCPU(at, Preempt, "x", "for y", 5, 1)
		at++
	}); allocs != 0 {
		t.Errorf("Add on a full ring allocates %v times per call, want 0", allocs)
	}
}
