package trace

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

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

// ringCounts returns the event counts TestRingGrowthBoundaries records
// into a ring of the given capacity: around the capacity, three times
// it, and wraps that leave the oldest event on each block edge and in
// the middle of each block.
func ringCounts(capacity int) []int {
	ns := []int{capacity - 1, capacity, capacity + 1, 3 * capacity}
	for off := 0; off < capacity; off += blockLen {
		ns = append(ns, 2*capacity+off, 2*capacity+off+min(blockLen, capacity-off)/2)
	}
	return ns
}

// TestRingGrowthBoundaries: a ring stored in blocks keeps exactly what a
// fixed ring of the same capacity keeps, at and around the capacities
// where a block starts, fills, is clipped and wraps, and with the oldest
// event on a block edge or mid-block. Its blocks never hold more than
// the capacity, nor more than what it keeps rounded up to one block,
// and both exports write the reference's bytes.
func TestRingGrowthBoundaries(t *testing.T) {
	names := []string{"t0", "t1", "t2", "isr", ""}
	for _, capacity := range []int{1, 2, 255, 256, 257, 511, 512, 513, 1024, 1025, 3*512 + 7, 4096} {
		for _, n := range ringCounts(capacity) {
			l := New(capacity)
			ref := &fixedRing{slots: make([]Event, capacity)}
			for i := 0; i < n; i++ {
				e := Event{At: vtime.Time(i), Kind: Kind(i % int(NumKinds)), Task: names[i%len(names)], CPU: i % 3}
				if i%7 == 0 {
					e.Detail, e.Dur = "m", vtime.Duration(i)
				}
				l.AddDurCPU(e.At, e.Kind, e.Task, e.Detail, e.Dur, e.CPU)
				ref.add(e)
			}
			label := fmt.Sprintf("cap %d, %d events", capacity, n)
			stored := 0
			for _, b := range l.blocks {
				stored += len(b)
			}
			if kept := min(n, capacity); stored > capacity || stored > (kept+blockMask)&^blockMask {
				t.Fatalf("%s: blocks hold %d events", label, stored)
			}
			got, want := l.Events(), ref.events()
			if len(got) != len(want) {
				t.Fatalf("%s: retained %d, want %d", label, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: event %d = %+v, want %+v", label, i, got[i], want[i])
				}
			}
			if l.Total() != uint64(n) {
				t.Errorf("%s: total %d", label, l.Total())
			}
			dropped := uint64(max(n-capacity, 0))
			if l.Dropped() != dropped {
				t.Errorf("%s: dropped %d, want %d", label, l.Dropped(), dropped)
			}
			raw := rawOf(want, uint64(n), dropped)
			var js, pf bytes.Buffer
			if err := l.ExportJSON(&js); err != nil {
				t.Fatal(err)
			}
			if err := l.ExportPerfetto(&pf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js.Bytes(), encodeRef(t, raw)) {
				t.Fatalf("%s: ExportJSON differs from the reference ring's", label)
			}
			if !bytes.Equal(pf.Bytes(), encodeRef(t, buildPerfettoDoc(want, map[string]any{"emeraldsTrace": raw}))) {
				t.Fatalf("%s: ExportPerfetto differs from the reference ring's", label)
			}
		}
	}
}

// allocBytes returns the fewest bytes f allocated in three runs.
func allocBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestLogAddAllocationBytes: recording n events into emsim's 1<<20-event
// ring allocates the log, ⌈n/blockLen⌉ blocks and the block table, whose
// appends allocate at most four times its final length in headers. A
// ring that doubles a contiguous array allocates about twice what it
// keeps.
func TestLogAddAllocationBytes(t *testing.T) {
	for _, n := range []int{1, blockLen - 1, blockLen, blockLen + 1, benchEvents} {
		events := cycleEvents(n, 1)
		blocks := (n + blockMask) / blockLen
		limit := uint64(unsafe.Sizeof(Log{})) +
			uint64(blocks)*blockLen*uint64(unsafe.Sizeof(Event{})) +
			4*uint64(blocks)*uint64(unsafe.Sizeof([]Event(nil)))
		if got := allocBytes(func() { logOf(events) }); got > limit {
			t.Errorf("recording %d events allocated %d bytes; want at most %d (%d blocks and the table)",
				n, got, limit, blocks)
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
