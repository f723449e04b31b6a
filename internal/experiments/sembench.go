// Package experiments implements the harnesses that regenerate every
// table and figure of the paper's evaluation. Each experiment is a
// plain function returning data series, shared by the cmd/ tools (which
// print them) and by bench_test.go (which reports them as benchmark
// metrics). EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"strconv"

	"emeralds/internal/costmodel"
	"emeralds/internal/harness"
	"emeralds/internal/kernel"
	"emeralds/internal/metrics"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// This file regenerates Figures 11 and 12 (§6.4): semaphore
// acquire/release overhead versus scheduler queue length, standard
// versus optimized scheme, for the DP (EDF) queue and the FP (RM)
// queue.
//
// The measured scenario is exactly Figure 6 of the paper: thread T₂
// (highest priority among the runnable three) blocks on an event E
// whose hint names semaphore S; low-priority T₁ locks S; the unrelated
// Tₓ is executing when E arrives while T₁ still holds S, so T₂ must
// obtain S through priority inheritance. The metric is the total
// kernel overhead charged between E and the end of T₂'s critical
// section — the window that contains the whole acquire/release
// interaction and nothing else (padding tasks never run, and no timer
// releases land inside the window).

// m68040 is the package's shared default cost model. Profiles are
// read-only after construction (Scaled returns a copy), so one
// instance serves every scenario instead of being rebuilt per kernel.
var m68040 = costmodel.M68040()

// SemQueueKind selects which scheduler queue the scenario exercises.
type SemQueueKind string

// Queue kinds for SemOverheadCurveDiag.
const (
	DPQueue SemQueueKind = "dp" // EDF-style unsorted queue (Figure 11)
	FPQueue SemQueueKind = "fp" // RM sorted queue (Figure 12)
)

// SemPoint is one measurement of the semaphore experiment. Durations
// marshal as µs (see vtime JSON encoding).
type SemPoint struct {
	QueueLen  int            `json:"queue_len"`
	Standard  vtime.Duration `json:"standard_us"`
	Optimized vtime.Duration `json:"optimized_us"`
}

// SavingPct reports the optimized scheme's relative improvement.
func (p SemPoint) SavingPct() float64 {
	if p.Standard == 0 {
		return 0
	}
	return 100 * float64(p.Standard-p.Optimized) / float64(p.Standard)
}

// semBuild is one semaphore build of the Figure 6 scenario: the §6.1
// standard scheme, or the §6.2 optimized one with either half ablated.
type semBuild struct {
	name                                        string
	optimized, disableHints, disablePlaceholder bool
}

// semSchemes are the two builds Figures 11 and 12 compare.
var semSchemes = []semBuild{
	{name: "standard"},
	{name: "optimized", optimized: true},
}

// SemOverheadCurveDiag measures the acquire/release pair overhead at
// each queue length under both semaphore implementations, one harness
// job per queue length. The scenario is fully deterministic (no RNG),
// so the fan-out affects wall time only. It also returns the merged
// diagnostics block: counters summed over every scenario kernel
// (standard and optimized) and the waiter T2's semaphore blocking-time
// histograms, keyed by queue kind and scheme ("dp/standard/T2") and
// folded across jobs in job order — identical for any harness worker
// count.
func SemOverheadCurveDiag(kind SemQueueKind, lens []int, prof *costmodel.Profile, par Par) ([]SemPoint, *metrics.Diagnostics) {
	overheads, d := semBuildsDiag("sem-"+string(kind), kind, lens, semSchemes, prof, par)
	pts := make([]SemPoint, len(lens))
	for i, o := range overheads {
		pts[i] = SemPoint{QueueLen: lens[i], Standard: o[0], Optimized: o[1]}
	}
	return pts, d
}

// semBuildsDiag runs the Figure 6 scenario under every build at each
// queue length, one harness job per length, and returns each length's
// overheads in build order with the diagnostics block of all the runs,
// T2's blocking histograms keyed "kind/build/T2".
func semBuildsDiag(label string, kind SemQueueKind, lens []int, builds []semBuild, prof *costmodel.Profile, par Par) ([][]vtime.Duration, *metrics.Diagnostics) {
	c := diagCollector{hist: (*kernel.Thread).Blocking, metric: "blocking"}
	jobs := parRun(par, label, len(lens),
		func(j harness.Job) (diagJob[[]vtime.Duration], error) {
			var out diagJob[[]vtime.Duration]
			out.val = make([]vtime.Duration, len(builds))
			for bi, b := range builds {
				d, k := semScenarioRun(kind, lens[j.Index], b, prof, true)
				out.val[bi] = d
				c.add(&out.diagShare, string(kind)+"/"+b.name, k)
			}
			return out, nil
		})
	return fold(c, jobs)
}

// SemScenario runs one Figure 6 scenario with the scheduler queue
// padded to queueLen tasks and returns the overhead charged between
// event E and the completion of T₂'s critical section.
func SemScenario(kind SemQueueKind, queueLen int, optimized bool, prof *costmodel.Profile) vtime.Duration {
	d, _ := semScenarioRun(kind, queueLen, semBuild{optimized: optimized}, prof, false)
	return d
}

// semScenarioRun is the scenario body; it also hands back the kernel
// so callers can harvest counters and blocking histograms. record
// enables response/blocking histograms — only the Diag path reads
// them, and histogram pairs dominate the plain path's allocations.
func semScenarioRun(kind SemQueueKind, queueLen int, b semBuild, prof *costmodel.Profile, record bool) (vtime.Duration, *kernel.Kernel) {
	if prof == nil {
		prof = m68040
	}
	policy := sim.PolicyEDF
	if kind == FPQueue {
		policy = sim.PolicyRM
	}
	n := kernel.NewNode(sim.Config{
		Profile:            prof,
		Policy:             policy,
		StandardSem:        !b.optimized,
		DisableHints:       b.disableHints,
		DisablePlaceholder: b.disablePlaceholder,
		RecordResponses:    record,
		NoParser:           true,
	})
	k := n.Kernel()

	sem := k.NewSemaphore("S")
	ev := k.NewEvent("E")

	// T2: highest priority of the three actors. Blocks on E with hint
	// S, then locks S. The hint is what the §6.2.1 parser would have
	// inserted; the standard build ignores it.
	waitOp := task.WaitEvent(ev)
	waitOp.Hint = sem
	t2 := k.AddTask(task.Spec{
		Name:   "T2",
		Period: 50 * vtime.Millisecond,
		Prog: task.Program{
			task.Compute(500 * vtime.Microsecond),
			waitOp,
			task.Acquire(sem),
			task.Compute(500 * vtime.Microsecond),
			task.Release(sem),
		},
	})

	// Tx: middle priority, executing when E arrives (Figure 6's
	// unrelated thread).
	k.AddTask(task.Spec{
		Name:   "Tx",
		Period: 60 * vtime.Millisecond,
		Phase:  2 * vtime.Millisecond,
		Prog: task.Program{
			task.Compute(2 * vtime.Millisecond),
		},
	})

	// T1: lowest priority; holds S across E.
	k.AddTask(task.Spec{
		Name:   "T1",
		Period: 80 * vtime.Millisecond,
		Phase:  1 * vtime.Millisecond,
		Prog: task.Program{
			task.Acquire(sem),
			task.Compute(4 * vtime.Millisecond),
			task.Release(sem),
		},
	})

	// Padding: inert tasks inflating the scheduler queue to queueLen.
	// Their phases lie beyond the horizon, so they stay blocked in the
	// queue for the whole run. Their periods are *shorter* than T2's,
	// placing them ahead of T2 in the sorted FP queue: the standard
	// scheme's PI reposition of T1 (to just ahead of T2) and its
	// restore (back to the tail) each walk across them, reproducing
	// the O(n−r) cost of §6.1; in the unsorted DP queue they lengthen
	// every O(n) selection scan.
	for i := 3; i < queueLen; i++ {
		k.AddTask(task.Spec{
			Name:   padName(i),
			Period: 10*vtime.Millisecond + vtime.Duration(i)*vtime.Microsecond,
			Phase:  10 * vtime.Second,
			WCET:   10 * vtime.Microsecond,
		})
	}

	var (
		startMark vtime.Duration
		endMark   vtime.Duration
		armed     bool
		done      bool
	)
	// E arrives at exactly 3 ms, while Tx executes (Tx runs 2–4 ms)
	// and T1 holds S (locked since ~1 ms, 4 ms of critical section
	// left). The snapshot is taken before any signal processing, so
	// the window contains every charge of the interaction.
	k.Engine().At(vtime.Time(3*vtime.Millisecond), "eventE", func() {
		armed = true
		startMark = k.Stats().TotalOverhead()
		k.SignalEventISR(ev)
	})
	k.OnJobComplete = func(th *kernel.Thread) {
		if th == t2 && armed && !done {
			done = true
			endMark = k.Stats().TotalOverhead()
		}
	}
	if err := n.Boot(); err != nil {
		panic(err)
	}
	n.Run(40 * vtime.Millisecond)
	if !done {
		panic(fmt.Sprintf("experiments: sem scenario did not complete (kind=%s len=%d build=%+v)", kind, queueLen, b))
	}
	return endMark - startMark, k
}

// padName formats "pad%02d" without fmt or, for the common queue
// lengths, any allocation at all — scenario construction is the
// dominant cost of the sem benchmarks, and name formatting showed up
// in its allocation profile.
func padName(i int) string {
	if i < len(padNames) {
		return padNames[i]
	}
	return "pad" + strconv.Itoa(i)
}

var padNames = func() (t [128]string) {
	for i := range t {
		if i < 10 {
			t[i] = "pad0" + strconv.Itoa(i)
		} else {
			t[i] = "pad" + strconv.Itoa(i)
		}
	}
	return
}()
