package trace_test

import (
	"io"
	"testing"

	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
	"emeralds/internal/workload"
)

// emsimLog records the trace of one emsim-traced unit at seed 1: the
// 30-task U=0.7 set under csd for 2 virtual seconds in a 1<<20-event
// ring, as `emsim -n 30 -u 0.7 -ms 2000 -trace-out` records it. Unlike
// the synthetic cycle, most of its run slices have durations whose
// float microseconds are inexact, so it measures the export's cost on
// the workload it serves.
func emsimLog(tb testing.TB) *trace.Log {
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
	return sys.Trace()
}

// BenchmarkExportPerfettoEmsim exports the emsim-traced trace with its
// embedded raw block; one op is the whole export.
func BenchmarkExportPerfettoEmsim(b *testing.B) {
	l := emsimLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.ExportPerfetto(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(l.Total()), "ns/event")
}
