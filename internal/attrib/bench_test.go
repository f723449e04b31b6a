package attrib_test

import (
	"math"
	"runtime"
	"testing"

	"emeralds/internal/attrib"
	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
	"emeralds/internal/workload"
)

// tracedEvents is the trace `emsim -n 30 -u 0.7 -attrib` replays: 30
// generated tasks at U = 0.7 under csd for 2 virtual seconds, recorded
// into emsim's 1<<20-event ring.
func tracedEvents(tb testing.TB) []trace.Event {
	tb.Helper()
	sys, err := kernel.Boot(sim.Config{CPUs: 1, Lock: "percpu", Policy: sim.PolicyCSD, Queues: 3,
		RecordResponses: true, TraceCapacity: 1 << 20}, func(n *kernel.Node) error {
		for _, s := range workload.Generate(workload.Config{N: 30, Utilization: 0.7, PeriodDiv: 1, Seed: 1}) {
			n.AddTask(s)
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	sys.Run(2000 * vtime.Millisecond)
	if d := sys.Trace().Dropped(); d != 0 {
		tb.Fatalf("trace ring dropped %d events", d)
	}
	return sys.Trace().Events()
}

var reportSink *attrib.Report

// BenchmarkAnalyze replays the emsim trace into attribution and its
// report, as `emsim -attrib` does.
func BenchmarkAnalyze(b *testing.B) {
	evs := tracedEvents(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := attrib.Analyze(evs, 0)
		if err != nil {
			b.Fatal(err)
		}
		reportSink = an.Report()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}

// TestAnalyzeAllocationFreePerEvent: the replay allocates per task, per
// activation batch and per blocking chain, never per event. On the emsim
// trace that is fewer than one allocation per 50 events.
func TestAnalyzeAllocationFreePerEvent(t *testing.T) {
	evs := tracedEvents(t)
	runtime.GC()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := attrib.Analyze(evs, 0); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(len(evs)) / 50; allocs >= limit {
		t.Errorf("Analyze made %v allocations for %d events; want fewer than %v", allocs, len(evs), limit)
	}
	t.Logf("%v allocations for %d events", allocs, len(evs))
}

// TestAnalyzeAllocationBytesPerEvent: the replay keeps its intervals as
// pointer-free spans, so on the emsim trace it allocates under 200 bytes
// per event. An analysis that built every activation's []Interval, 104
// bytes each with four pointers, allocated 256.
func TestAnalyzeAllocationBytesPerEvent(t *testing.T) {
	evs := tracedEvents(t)
	least := uint64(math.MaxUint64)
	for range 3 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := attrib.Analyze(evs, 0); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	perEvent := float64(least) / float64(len(evs))
	if perEvent >= 200 {
		t.Errorf("Analyze allocated %d bytes for %d events (%.0f per event); want under 200 per event", least, len(evs), perEvent)
	}
	t.Logf("%d bytes for %d events (%.0f per event)", least, len(evs), perEvent)
}
