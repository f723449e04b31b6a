package trace

import (
	"fmt"
	"io"
	"testing"

	"emeralds/internal/vtime"
)

// benchEvents is about the number of events one emsim-traced unit
// records: a 30-task set under csd for 2 virtual seconds.
const benchEvents = 14000

// cycleEvents returns n events of a fixed activation pattern cycling
// over 30 tasks, shaped like an emsim run: release, dispatch, a
// semaphore acquire, a preemption carrying overhead, redispatch, a
// semaphore release granting the next task, and completion. With
// cpus > 1, activations rotate over the CPUs and each task then
// migrates to the next CPU.
func cycleEvents(n, cpus int) []Event {
	var tasks, preempt [30]string
	for i := range tasks {
		tasks[i] = fmt.Sprintf("tau%02d", i)
	}
	for i := range preempt {
		preempt[i] = "for " + tasks[(i+1)%len(tasks)]
	}
	evs := make([]Event, 0, n+10)
	var at vtime.Time
	add := func(k Kind, task, detail string, dur vtime.Duration, cpu int) {
		at += 1250
		evs = append(evs, Event{At: at, Kind: k, Task: task, Detail: detail, Dur: dur, CPU: cpu})
	}
	for i := 0; len(evs) < n; i++ {
		task, next, cpu := tasks[i%len(tasks)], tasks[(i+1)%len(tasks)], i%cpus
		add(Release, task, "", 0, cpu)
		add(Dispatch, task, "", 0, cpu)
		add(SemAcquire, task, "s1", 0, cpu)
		add(Preempt, task, preempt[i%len(tasks)], 1500, cpu)
		add(Dispatch, task, "", 0, cpu)
		add(SemRelease, task, "s1", 0, cpu)
		add(SemGrant, next, "s1", 0, cpu)
		add(Complete, task, "", 800, cpu)
		if cpus > 1 {
			add(Migrate, task, "", 0, cpu)
			add(MigrateDone, task, "", 0, (cpu+1)%cpus)
		}
	}
	return evs[:n]
}

// logOf records events into a log with emsim's -trace-out capacity.
func logOf(events []Event) *Log {
	l := New(1 << 20)
	for _, e := range events {
		l.AddDurCPU(e.At, e.Kind, e.Task, e.Detail, e.Dur, e.CPU)
	}
	return l
}

// BenchmarkLogAdd records one emsim-traced-sized run into a fresh log
// of emsim's -trace-out capacity; one op is the whole run.
func BenchmarkLogAdd(b *testing.B) {
	events := cycleEvents(benchEvents, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logOf(events)
	}
}

// BenchmarkExportPerfetto exports one emsim-traced-sized log, with its
// embedded raw block; one op is the whole export.
func BenchmarkExportPerfetto(b *testing.B) {
	l := logOf(cycleEvents(benchEvents, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.ExportPerfetto(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogAddFull records one event into a full one-event ring, the
// ring an untraced emsim run keeps for its diagnostics; one op is one
// event.
func BenchmarkLogAddFull(b *testing.B) {
	l := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.AddDurCPU(vtime.Time(i), Preempt, "tau01", "for tau02", 1500, 0)
	}
}
