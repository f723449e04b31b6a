package kernel_test

import (
	"testing"

	"emeralds/internal/experiments"
	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
	"emeralds/internal/workload"
)

// runPolicies are the five run-queue structures, as `emsim -policy`
// names them.
var runPolicies = []string{sim.PolicyCSD, sim.PolicyEDF, sim.PolicyRM, sim.PolicyRMHeap, sim.PolicyFP}

// longSpecs is `emsim -n 30 -u 0.7`'s task set at seed 1.
func longSpecs() []task.Spec {
	return workload.Generate(workload.Config{N: 30, Utilization: 0.7, PeriodDiv: 1, Seed: 1})
}

// bootLong boots specs as `emsim -policy <policy>` does without any
// trace flag: responses recorded, a one-event trace ring.
func bootLong(tb testing.TB, policy string, specs []task.Spec) *kernel.Node {
	tb.Helper()
	n, err := kernel.Boot(sim.Config{Policy: policy, Queues: 3, RecordResponses: true, TraceCapacity: 1},
		func(n *kernel.Node) error {
			for _, s := range specs {
				n.AddTask(s)
			}
			return nil
		})
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// BenchmarkRun is one untraced emsim run per op and policy: boot the
// 30-task set at U = 0.7 and simulate 10 virtual seconds, as
// `emsim -n 30 -u 0.7 -ms 10000 -policy <p>` does. ns/event divides
// the host time by the engine events dispatched.
func BenchmarkRun(b *testing.B) {
	specs := longSpecs()
	for _, p := range runPolicies {
		b.Run(p, func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				n := bootLong(b, p, specs)
				n.Run(10 * vtime.Second)
				events += n.Kernel().Engine().Fired()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}

// BenchmarkKernelSimulation measures simulator throughput: virtual
// milliseconds of a 10-task CSD-3 system simulated per wall second.
func BenchmarkKernelSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.SemScenario(experiments.FPQueue, 10, true)
		if r <= 0 {
			b.Fatal("degenerate scenario")
		}
	}
}

// BenchmarkKernelSimulationM4 is the multicore counterpart of
// BenchmarkKernelSimulation: the contended 8-task lock-ablation
// workload on four per-CPU schedulers with lock-free run queues,
// 10 ms of simulated time per iteration.
func BenchmarkKernelSimulationM4(b *testing.B) {
	var p experiments.LockPoint
	for i := 0; i < b.N; i++ {
		var err error
		p, _, err = experiments.LockCellObserved(sim.Config{CPUs: 4, Lock: kernel.LockPerCPU.String()}, 10*vtime.Millisecond, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	if p.Completions == 0 {
		b.Fatal("degenerate scenario")
	}
	b.ReportMetric(float64(p.Completions), "completions")
	b.ReportMetric(p.Overhead.Micros(), "model-overhead-µs")
}
