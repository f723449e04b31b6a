package sim

import (
	"testing"

	"emeralds/internal/vtime"
)

// benchTask is one periodic timer in BenchmarkEngine. Its release
// re-arms itself, stretches the running segment twice, as the kernel's
// charges do, and every fourth release preempts the segment: a cancel
// and a fresh schedule.
type benchTask struct {
	e      *Engine
	period vtime.Duration
	seg    *benchSeg
	n      int
}

func (bt *benchTask) Fire(*Event) {
	e, s := bt.e, bt.seg
	e.Schedule(e.Now().Add(bt.period), ClassDefault, "release", bt)
	for _, d := range [...]vtime.Duration{3000, 1000} {
		s.end = s.end.Add(d)
		e.Retime(s.ev, s.end)
	}
	if bt.n++; bt.n%4 == 0 {
		e.Cancel(s.ev)
		s.start()
	}
}

// benchSeg is the one running segment: its completion starts the next.
type benchSeg struct {
	e   *Engine
	ev  *Event
	end vtime.Time
}

func (s *benchSeg) start() {
	s.end = s.e.Now().Add(200 * vtime.Microsecond)
	s.ev = s.e.Schedule(s.end, ClassCompletion, "seg", s)
}

func (s *benchSeg) Fire(*Event) { s.start() }

// BenchmarkEngine dispatches a kernel-shaped event mix: 30 periodic
// timers from 5 to 846 ms and one segment that each release retimes
// twice and every fourth release cancels and reschedules. One op is one
// dispatched event.
func BenchmarkEngine(b *testing.B) {
	e := New()
	seg := &benchSeg{e: e}
	seg.start()
	for i := 0; i < 30; i++ {
		bt := &benchTask{e: e, period: vtime.Duration(5+i*i) * vtime.Millisecond, seg: seg}
		e.Schedule(vtime.Time(i), ClassDefault, "release", bt)
	}
	for i := 0; i < 1000; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
