package experiments

import (
	"emeralds/internal/costmodel"
	"emeralds/internal/kernel"
	"emeralds/internal/metrics"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// MigrationPingPong bounces one long-running task between two CPUs once
// per millisecond and returns how many migrations landed plus the total
// simulated time charged to them. Each request arrives mid-segment, so
// every move exercises the full deferred path: request, segment-boundary
// detach, transit, IPI, re-attach. Deterministic; the data behind
// BenchmarkMigrationOp.
func MigrationPingPong(prof *costmodel.Profile, ms vtime.Duration) (migrations uint64, charge vtime.Duration) {
	if prof == nil {
		prof = m68040
	}
	n := kernel.NewNode(sim.Config{
		Profile:     prof,
		Policy:      sim.PolicyEDF,
		CPUs:        2,
		StandardSem: true,
		NoParser:    true,
	})
	k := n.Kernel()
	// Eight short segments per job so a mid-segment request always finds
	// a boundary within 100 µs.
	var prog task.Program
	for i := 0; i < 8; i++ {
		prog = append(prog, task.Compute(100*vtime.Microsecond))
	}
	k.AddTask(task.Spec{
		Name:   "pingpong",
		Period: vtime.Millisecond,
		WCET:   800 * vtime.Microsecond,
		Prog:   prog,
	})
	if err := n.Boot(); err != nil {
		panic(err)
	}
	th := k.Threads()[0]
	for t := 500 * vtime.Microsecond; t < ms; t += vtime.Millisecond {
		k.Engine().At(vtime.Time(0).Add(t), "bench:migrate", func() {
			_ = k.Migrate(th, (th.TCB.CPU+1)%2)
		})
	}
	k.Run(ms)
	return k.Metrics().Get(metrics.Migrations), k.Stats().MigrationCharge
}
