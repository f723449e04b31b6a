package experiments

import (
	"fmt"
	"strings"

	"emeralds/internal/harness"
	"emeralds/internal/kernel"
	"emeralds/internal/metrics"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// Lock-granularity ablation: the same contended workload under the
// three simulated kernel-lock regimes (big kernel lock, per-queue
// locks, per-CPU lock-free run queues) at 1, 2 and 4 CPUs. The regimes
// differ only in how kernel operations map to lock domains, so the
// deltas isolate what each step of lock splitting buys — the classic
// BKL → fine-grained progression measured in simulated time.

// LockPoint is one (CPUs, regime) cell of the grid.
type LockPoint struct {
	CPUs        int            `json:"cpus"`
	Regime      string         `json:"regime"`
	LockCharge  vtime.Duration `json:"lock_charge_us"` // spin time charged to lock acquisition
	Contentions uint64         `json:"contentions"`    // acquisitions that found the domain busy
	LockWait    vtime.Duration `json:"lock_wait_us"`   // time spent spinning on busy domains
	Overhead    vtime.Duration `json:"overhead_us"`    // total kernel overhead, all sources
	Useful      vtime.Duration `json:"useful_us"`      // task compute retired
	Completions uint64         `json:"completions"`
	Misses      uint64         `json:"misses"`
}

// lockWorkload is the contended task set every cell runs: eight tasks
// sharing two mutexes and a mailbox pair, periods chosen co-prime-ish
// so critical sections collide from every CPU. Deterministic.
func lockWorkload(k *kernel.Kernel) {
	s1 := k.NewSemaphore("res1")
	s2 := k.NewSemaphore("res2")
	mb := k.NewMailbox("mb", 4)
	periods := []vtime.Duration{5, 6, 7, 9, 10, 11, 13, 15}
	for i, p := range periods {
		prog := task.Program{
			task.Acquire(s1),
			task.Compute(200 * vtime.Microsecond),
			task.Release(s1),
			task.Compute(vtime.Duration(300+50*i) * vtime.Microsecond),
		}
		switch {
		case i%3 == 1:
			prog = append(prog,
				task.Acquire(s2),
				task.Compute(150*vtime.Microsecond),
				task.Release(s2))
		case i%3 == 2:
			prog = append(prog, task.Send(mb, int64(i), 8))
		default:
			if i > 0 {
				prog = append(prog, task.Recv(mb))
			}
		}
		// WCET drives AssignCPUs' utilization balancing; sum the
		// program's compute so placement spreads the load.
		var wcet vtime.Duration
		for _, op := range prog {
			if op.Kind == task.OpCompute {
				wcet += op.Dur
			}
		}
		k.AddTask(task.Spec{
			Name:   fmt.Sprintf("t%d", i),
			Period: p * vtime.Millisecond,
			WCET:   wcet,
			Prog:   prog,
		})
	}
}

// LockCellObserved runs the lock-ablation workload on a node built from
// cfg (Policy is forced to the ablation's fixed choice),
// calling observe — if non-nil — on the assembled node before Boot.
// This is the hook behind ablate's -trace-out/-sample-us flags: the
// caller can attach a flight recorder or size a trace ring via cfg and
// harvest both from the returned node.
func LockCellObserved(cfg sim.Config, ms vtime.Duration, observe func(*kernel.Node) error) (LockPoint, *kernel.Node, error) {
	cfg.Policy = sim.PolicyEDF
	if cfg.Profile == nil {
		cfg.Profile = m68040
	}
	cpus := cfg.CPUs
	if cpus < 1 {
		cpus = 1
	}
	regime := cfg.Lock
	if regime == "" {
		regime = kernel.LockPerCPU.String()
	}
	n := kernel.NewNode(cfg)
	k := n.Kernel()
	lockWorkload(k)
	if observe != nil {
		if err := observe(n); err != nil {
			return LockPoint{}, nil, err
		}
	}
	if err := n.Boot(); err != nil {
		return LockPoint{}, nil, err
	}
	n.Run(ms)
	st := k.Stats()
	m := k.Metrics()
	return LockPoint{
		CPUs:        cpus,
		Regime:      regime,
		LockCharge:  st.LockCharge,
		Contentions: m.Get(metrics.LockContentions),
		LockWait:    vtime.Duration(m.Get(metrics.LockWaitNs)),
		Overhead:    st.TotalOverhead(),
		Useful:      st.UsefulCompute,
		Completions: st.Completions,
		Misses:      st.Misses,
	}, n, nil
}

// LockGrid runs the lock-granularity grid (cpus × regime), one harness
// job per cell, in a fixed deterministic order. The explicit -lock flag
// pins the regime axis to one regime; nil runs all three.
func LockGrid(cpuCounts []int, regimes []kernel.LockRegime, ms vtime.Duration, par Par) []LockPoint {
	if len(cpuCounts) == 0 {
		cpuCounts = []int{1, 2, 4}
	}
	if len(regimes) == 0 {
		regimes = []kernel.LockRegime{kernel.LockPerCPU, kernel.LockPerQueue, kernel.LockBig}
	}
	type cell struct {
		cpus   int
		regime kernel.LockRegime
	}
	var cells []cell
	for _, m := range cpuCounts {
		for _, r := range regimes {
			cells = append(cells, cell{m, r})
		}
	}
	return parRun(par, "lock-granularity", len(cells),
		func(j harness.Job) (LockPoint, error) {
			c := cells[j.Index]
			pt, _, err := LockCellObserved(sim.Config{
				CPUs: c.cpus,
				Lock: c.regime.String(),
			}, ms, nil)
			return pt, err
		})
}

// RenderLockGranularity prints the grid with a spin-overhead bar per
// row — the figure the ablation ships.
func RenderLockGranularity(ms vtime.Duration, pts []LockPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Lock-granularity ablation (%v of simulated time, contended 8-task workload)\n", ms)
	fmt.Fprintf(&b, "%4s %9s %12s %11s %12s %12s %6s %6s  %s\n",
		"cpus", "regime", "lock charge", "contention", "spin wait", "overhead", "done", "miss", "lock share of overhead")
	var maxShare float64
	shares := make([]float64, len(pts))
	for i, p := range pts {
		if p.Overhead > 0 {
			shares[i] = float64(p.LockCharge) / float64(p.Overhead)
		}
		if shares[i] > maxShare {
			maxShare = shares[i]
		}
	}
	for i, p := range pts {
		bar := ""
		if maxShare > 0 {
			bar = strings.Repeat("█", int(shares[i]/maxShare*24+0.5))
		}
		fmt.Fprintf(&b, "%4d %9s %12v %11d %12v %12v %6d %6d  %-24s %4.1f%%\n",
			p.CPUs, p.Regime, p.LockCharge, p.Contentions, p.LockWait,
			p.Overhead, p.Completions, p.Misses, bar, 100*shares[i])
	}
	return b.String()
}
