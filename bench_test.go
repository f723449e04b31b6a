// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark reports the reproduced quantities as
// custom metrics (µs of calibrated virtual time, utilization percent),
// alongside the real ns/op of our Go implementation, whose asymptotic
// shape must match the paper's O() analysis even though the hardware is
// three decades newer. EXPERIMENTS.md records paper-vs-measured.
package emeralds_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"emeralds/internal/attrib"
	"emeralds/internal/costmodel"
	"emeralds/internal/experiments"
	"emeralds/internal/ipc"
	"emeralds/internal/ipc/vlink"
	"emeralds/internal/kernel"
	"emeralds/internal/metrics"
	"emeralds/internal/scenario"
	"emeralds/internal/schedq"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/telemetry"
	"emeralds/internal/vtime"
	"emeralds/internal/workload"
)

// --- Table 1: scheduler queue-operation overheads ----------------------

func mkTCBs(n int) []*task.TCB {
	ts := make([]*task.TCB, n)
	for i := range ts {
		ts[i] = task.New(i, task.Spec{Period: vtime.Duration(i+1) * vtime.Millisecond})
		ts[i].BasePrio, ts[i].EffPrio = i, i
		ts[i].State = task.Ready
		ts[i].EffDeadline = vtime.Time(i+1) * vtime.Time(vtime.Millisecond)
	}
	return ts
}

// BenchmarkTable1 measures the real cost of each queue operation at the
// paper's sample sizes and reports the calibrated 68040 cost alongside.
func BenchmarkTable1(b *testing.B) {
	prof := costmodel.M68040()
	for _, n := range []int{5, 15, 30, 58} {
		b.Run(fmt.Sprintf("EDF-select/n=%d", n), func(b *testing.B) {
			var q schedq.Unsorted
			for _, t := range mkTCBs(n) {
				q.Insert(t)
			}
			b.ReportMetric(prof.EDFSelect(n).Micros(), "model-µs")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.SelectEarliest()
			}
		})
		b.Run(fmt.Sprintf("RM-block/n=%d", n), func(b *testing.B) {
			var q schedq.Sorted
			ts := mkTCBs(n)
			for _, t := range ts {
				t.State = task.Blocked
				q.Insert(t)
			}
			head := ts[0]
			b.ReportMetric(prof.RMBlock(n).Micros(), "model-µs")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Worst case: the head blocks and the scan walks the
				// whole queue.
				head.State = task.Ready
				q.Unblock(head)
				head.State = task.Blocked
				q.Block(head)
			}
		})
		b.Run(fmt.Sprintf("RM-select/n=%d", n), func(b *testing.B) {
			var q schedq.Sorted
			for _, t := range mkTCBs(n) {
				q.Insert(t)
			}
			b.ReportMetric(prof.RMSelect().Micros(), "model-µs")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if q.HighestP() == nil {
					b.Fatal("no ready task")
				}
			}
		})
		b.Run(fmt.Sprintf("Heap-ops/n=%d", n), func(b *testing.B) {
			var h schedq.Heap
			ts := mkTCBs(n)
			for _, t := range ts {
				h.Insert(t)
			}
			lv := costmodel.Levels(n)
			b.ReportMetric((prof.HeapBlock(lv) + prof.HeapUnblock(lv)).Micros(), "model-µs")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := h.Peek()
				h.Remove(t)
				h.Insert(t)
			}
		})
	}
}

// --- Table 2 / Figure 2: the EDF-feasible, RM-infeasible workload ------

func BenchmarkFigure2(b *testing.B) {
	var r experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure2()
	}
	b.ReportMetric(float64(r.RMMisses), "rm-misses")
	b.ReportMetric(float64(r.EDFMisses), "edf-misses")
	b.ReportMetric(float64(r.CSD2Misses), "csd2-misses")
}

// --- Table 3: CSD-3 overhead case analysis -----------------------------

func BenchmarkTable3(b *testing.B) {
	var entries []experiments.Table3Entry
	for i := 0; i < b.N; i++ {
		entries = experiments.Table3(5, 15, 30)
	}
	for _, e := range entries {
		if e.Event == "block" {
			b.ReportMetric(e.PerPeriod.Micros(), e.Queue+"-t-µs")
		}
	}
}

// --- Figures 3–5: breakdown utilization sweeps --------------------------

func benchBreakdown(b *testing.B, div int) {
	var res *experiments.BreakdownResult
	for i := 0; i < b.N; i++ {
		res = experiments.BreakdownFigure(experiments.BreakdownConfig{
			Ns:        []int{15, 40},
			PeriodDiv: div,
			Workloads: 8,
			Seed:      1,
			Par:       experiments.Serial,
		})
	}
	last := len(res.Ns) - 1
	for _, s := range res.Cfg.Schedulers {
		b.ReportMetric(res.Series[s][last], s+"-pct@40")
	}
}

func BenchmarkFigure3(b *testing.B) { benchBreakdown(b, 1) }
func BenchmarkFigure4(b *testing.B) { benchBreakdown(b, 2) }
func BenchmarkFigure5(b *testing.B) { benchBreakdown(b, 3) }

// BenchmarkHarnessFanout compares the serial and parallel executions
// of the same small Figure 3 sweep through the shared harness. The
// two sub-benchmarks produce bit-identical series (see
// TestBreakdownParallelDeterminism); the ns/op ratio is the harness's
// speedup, which approaches NumCPU on multicore hardware.
func BenchmarkHarnessFanout(b *testing.B) {
	run := func(b *testing.B, workers int) {
		b.ReportMetric(float64(runtime.NumCPU()), "num-cpu")
		for i := 0; i < b.N; i++ {
			experiments.BreakdownFigure(experiments.BreakdownConfig{
				Ns:        []int{10, 20, 30},
				PeriodDiv: 1,
				Workloads: 4,
				Seed:      1,
				Par:       experiments.Par{Workers: workers},
			})
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// --- Figures 11–12: semaphore acquire/release overhead ------------------

func benchSemFigure(b *testing.B, kind experiments.SemQueueKind) {
	var pts []experiments.SemPoint
	for i := 0; i < b.N; i++ {
		pts, _ = experiments.SemOverheadCurveDiag(kind, []int{15}, experiments.Serial)
	}
	b.ReportMetric(pts[0].Standard.Micros(), "standard-µs@15")
	b.ReportMetric(pts[0].Optimized.Micros(), "optimized-µs@15")
	b.ReportMetric(pts[0].SavingPct(), "saving-pct@15")
}

func BenchmarkFigure11(b *testing.B) { benchSemFigure(b, experiments.DPQueue) }
func BenchmarkFigure12(b *testing.B) { benchSemFigure(b, experiments.FPQueue) }

// --- §7: state messages vs mailboxes vs virtual links --------------------

// BenchmarkIPCComparison measures one full IPCComparisonDiag grid
// point: state messages, mailboxes and virtual links.
func BenchmarkIPCComparison(b *testing.B) {
	var pts []experiments.IPCPoint
	for i := 0; i < b.N; i++ {
		pts, _ = experiments.IPCComparisonDiag([]int{8}, []int{4}, experiments.Serial)
	}
	b.ReportMetric(pts[0].StatePerMsg.Micros(), "state-µs/msg")
	b.ReportMetric(pts[0].MailboxPerMsg.Micros(), "mailbox-µs/msg")
	b.ReportMetric(pts[0].SpeedupX(), "speedup-x")
}

// BenchmarkStateMessageOp measures the raw Go-level cost of the
// wait-free write/read pair.
func BenchmarkStateMessageOp(b *testing.B) {
	sm := ipc.NewStateMessage(0, "bench", 3, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm.Write(int64(i))
		if _, ok := sm.Read(); !ok {
			b.Fatal("read failed")
		}
	}
}

// BenchmarkSamplerOverhead prices the flight recorder against the same
// 3-task EDF system it ships in emsim: "off" is the plain simulation,
// "on" adds a telemetry.Recorder at the emsim default cadence
// (horizon/512). The off/on ns/op ratio bounds the sampling tax.
func BenchmarkSamplerOverhead(b *testing.B) {
	const horizon = 100 * vtime.Millisecond
	run := func(b *testing.B, sample bool) {
		for i := 0; i < b.N; i++ {
			sys := kernel.NewNode(sim.Config{Policy: sim.PolicyEDF})
			sys.AddTask(task.Spec{Name: "a", Period: 10 * vtime.Millisecond, WCET: 2 * vtime.Millisecond})
			sys.AddTask(task.Spec{Name: "b", Period: 25 * vtime.Millisecond, WCET: 5 * vtime.Millisecond})
			sys.AddTask(task.Spec{Name: "c", Period: 50 * vtime.Millisecond, WCET: 8 * vtime.Millisecond})
			var rec *telemetry.Recorder
			if sample {
				var err error
				rec, err = telemetry.Attach(sys.Kernel(), telemetry.Config{Interval: horizon / 512, Capacity: 512})
				if err != nil {
					b.Fatal(err)
				}
			}
			if err := sys.Boot(); err != nil {
				b.Fatal(err)
			}
			sys.Run(horizon)
			if sys.Stats().Completions == 0 {
				b.Fatal("degenerate scenario")
			}
			if sample && rec.Ticks() == 0 {
				b.Fatal("recorder never ticked")
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkTracedUnit is one unit of perfbench's emsim-traced workload,
// `emsim -n 30 -u 0.7 -ms 2000 -trace-out -attrib -telemetry` at seed 1:
// boot and a 2 s run of the 30-task U = 0.7 set under csd with a
// 1<<20-event trace ring and a 512-sample flight recorder, the Perfetto
// export, the attribution replay and its report, and the recorder's
// analysis. The per-layer benchmarks each run on a quiet heap; this one
// runs the layers on one heap, so its ns/op and B/op include what the
// garbage collector costs the whole unit.
func BenchmarkTracedUnit(b *testing.B) {
	const horizon = 2000 * vtime.Millisecond
	specs := workload.Generate(workload.Config{N: 30, Utilization: 0.7, PeriodDiv: 1, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var rec *telemetry.Recorder
		sys, err := kernel.Boot(sim.Config{CPUs: 1, Lock: "percpu", Policy: sim.PolicyCSD, Queues: 3,
			RecordResponses: true, TraceCapacity: 1 << 20}, func(n *kernel.Node) error {
			for _, s := range specs {
				n.AddTask(s)
			}
			var err error
			rec, err = telemetry.Attach(n.Kernel(), telemetry.Config{Interval: horizon / 512, Capacity: 512})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(horizon)
		log := sys.Trace()
		if err := log.ExportPerfetto(io.Discard); err != nil {
			b.Fatal(err)
		}
		telemetry.Analyze(rec.Series(), telemetry.SLO{})
		an, err := attrib.Analyze(log.Events(), log.Dropped())
		if err != nil {
			b.Fatal(err)
		}
		an.Report()
	}
}

// BenchmarkMigrationOp prices one predictable migration: a task bounced
// between two CPUs once per millisecond, every request arriving
// mid-segment so the full deferred path runs (request, boundary detach,
// transit, IPI, re-attach). ns/op covers the whole 20 ms bounce run;
// model-µs is the calibrated simulated charge per move.
func BenchmarkMigrationOp(b *testing.B) {
	var migs uint64
	var charge vtime.Duration
	for i := 0; i < b.N; i++ {
		migs, charge = experiments.MigrationPingPong(20 * vtime.Millisecond)
	}
	if migs == 0 {
		b.Fatal("no migrations landed")
	}
	b.ReportMetric(float64(migs), "migrations")
	b.ReportMetric((charge / vtime.Duration(migs)).Micros(), "model-µs")
}

// BenchmarkPerCPUCounters compares the increment cost of the
// single-shard counter Set — whose instrumentation made up 34% of
// simulation time before the multicore split — with the M=4 per-CPU
// sharded layout plus its deterministic MergeShards fold. Sharding must
// not regress the single-set cost.
func BenchmarkPerCPUCounters(b *testing.B) {
	b.Run("single-shard", func(b *testing.B) {
		s := &metrics.Set{}
		for i := 0; i < b.N; i++ {
			s.Inc(metrics.ContextSwitches)
		}
		if s.Get(metrics.ContextSwitches) != uint64(b.N) {
			b.Fatal("lost increments")
		}
	})
	b.Run("sharded-m4", func(b *testing.B) {
		shards := []*metrics.Set{{}, {}, {}, {}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			shards[i&3].Inc(metrics.ContextSwitches)
		}
		merged := metrics.MergeShards(shards)
		if merged.Get(metrics.ContextSwitches) != uint64(b.N) {
			b.Fatal("merge lost increments")
		}
	})
}

// --- ablations (beyond the paper; DESIGN.md §6) ---------------------------

// BenchmarkAblationSemScheme decomposes the Figure 11/12 saving into
// the hint and place-holder mechanisms at queue length 15.
func BenchmarkAblationSemScheme(b *testing.B) {
	for _, kind := range []experiments.SemQueueKind{experiments.DPQueue, experiments.FPQueue} {
		b.Run(string(kind), func(b *testing.B) {
			var pts []experiments.SemAblationPoint
			for i := 0; i < b.N; i++ {
				pts, _ = experiments.SemAblationDiag(kind, []int{15}, experiments.Serial)
			}
			p := pts[0]
			b.ReportMetric(p.Standard.Micros(), "standard-µs")
			b.ReportMetric(p.HintOnly.Micros(), "hint-only-µs")
			b.ReportMetric(p.PlaceholderOnly.Micros(), "placeholder-µs")
			b.ReportMetric(p.Full.Micros(), "full-µs")
		})
	}
}

// BenchmarkAblationCSDCounters quantifies the §5.3 ready counters.
func BenchmarkAblationCSDCounters(b *testing.B) {
	var with, without vtime.Duration
	for i := 0; i < b.N; i++ {
		with, without = experiments.CSDCounterAblation(experiments.Serial)
	}
	b.ReportMetric(with.Millis(), "with-counters-ms")
	b.ReportMetric(without.Millis(), "without-counters-ms")
	b.ReportMetric(100*float64(without-with)/float64(without), "saving-pct")
}

// BenchmarkMailboxOp measures the raw Go-level cost of a mailbox
// push/pop pair, the queue-management counterpart of
// BenchmarkStateMessageOp.
func BenchmarkMailboxOp(b *testing.B) {
	m := ipc.NewQueue(0, "bench", 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Push(ipc.Msg{Val: int64(i), Size: 8})
		if got, ok := m.Pop(); !ok || got.Val != int64(i) {
			b.Fatal("value mismatch")
		}
	}
}

// --- wait-free MPMC virtual link ------------------------------------------

// BenchmarkVLinkOp measures the raw Go-level cost of an uncontended
// enqueue/dequeue pair on the lock-free sequence-stamped ring — the
// MPMC counterpart of BenchmarkMailboxOp's locked push/pop.
func BenchmarkVLinkOp(b *testing.B) {
	r := vlink.New(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TryEnqueue(ipc.Msg{Val: int64(i), Size: 8})
		if got, ok := r.TryDequeue(); !ok || got.Val != int64(i) {
			b.Fatal("value mismatch")
		}
	}
}

// benchContended drives g producer and g consumer goroutines through
// ~1<<14 messages per iteration and reports msgs/sec. The Gosched in
// the spin loops keeps the benchmark meaningful on single-CPU hosts,
// where a bare spin would serialize on the scheduler quantum.
func benchContended(b *testing.B, g int, enq func(ipc.Msg) bool, deq func() (ipc.Msg, bool)) {
	const total = 1 << 14
	prods, cons := g, g
	per := total / prods
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for p := 0; p < prods; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < per; n++ {
					for !enq(ipc.Msg{Val: int64(n), Size: 8}) {
						runtime.Gosched()
					}
				}
			}()
		}
		var got atomic.Int64
		for c := 0; c < cons; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, ok := deq(); ok {
						if got.Add(1) >= int64(prods*per) {
							return
						}
						continue
					}
					if got.Load() >= int64(prods*per) {
						return
					}
					runtime.Gosched()
				}
			}()
		}
		wg.Wait()
	}
	b.ReportMetric(float64(prods*per)*float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
}

// BenchmarkVLinkContended measures lock-free ring throughput under
// goroutine contention; BenchmarkMailboxContended is the mutex-guarded
// baseline on the identical workload. The acceptance bar for the PR 10
// ring is beating the mailbox on msgs/sec from 4 goroutines up.
func BenchmarkVLinkContended(b *testing.B) {
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			r := vlink.New(256)
			benchContended(b, g, r.TryEnqueue, r.TryDequeue)
		})
	}
}

func BenchmarkMailboxContended(b *testing.B) {
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			var mu sync.Mutex
			m := ipc.NewQueue(0, "bench", 256)
			enq := func(msg ipc.Msg) bool {
				mu.Lock()
				defer mu.Unlock()
				return m.Push(msg)
			}
			deq := func() (ipc.Msg, bool) {
				mu.Lock()
				defer mu.Unlock()
				return m.Pop()
			}
			benchContended(b, g, enq, deq)
		})
	}
}

// --- fuzzing campaign throughput ------------------------------------------

// BenchmarkFuzzCampaign measures cmd/emfuzz's end-to-end rate: generate,
// build, simulate, and oracle-check a mixed 56-scenario slice (every
// policy × scheme × M coordinate and all eleven archetypes) per
// iteration. scenarios/sec is what sizes CI and overnight campaigns.
func BenchmarkFuzzCampaign(b *testing.B) {
	const n = 56
	var rep *scenario.CampaignReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = scenario.RunCampaign(context.Background(), scenario.CampaignConfig{
			Scenarios: n, BaseSeed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Violations) > 0 {
			b.Fatalf("oracle violations: %+v", rep.Violations)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "scenarios/sec")
	b.ReportMetric(float64(rep.Completions), "completions")
}
