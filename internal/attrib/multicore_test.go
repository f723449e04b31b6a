package attrib_test

import (
	"fmt"
	"math/rand"
	"testing"

	"emeralds/internal/attrib"
	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// TestExactnessMulticore extends the tentpole invariant to multi-CPU
// traces: random contended workloads on 2 and 4 CPUs, with live
// migrations injected mid-run, must still partition every completed
// activation exactly — including the new migration component.
func TestExactnessMulticore(t *testing.T) {
	policies := []string{sim.PolicyCSD, sim.PolicyRM, sim.PolicyEDF}
	var completed, migratedActs int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cpus := 2 + 2*int(seed%2) // 2 or 4
		sys := kernel.NewNode(sim.Config{
			Policy:        policies[seed%int64(len(policies))],
			CPUs:          cpus,
			TraceCapacity: 1 << 20,
		})
		sem := sys.NewSemaphore("s0")
		periods := []vtime.Duration{3 * vtime.Millisecond, 5 * vtime.Millisecond,
			7 * vtime.Millisecond, 10 * vtime.Millisecond}
		nTasks := 4 + rng.Intn(4)
		for i := 0; i < nTasks; i++ {
			period := periods[rng.Intn(len(periods))]
			var prog task.Program
			budget := period / vtime.Duration(3+rng.Intn(3))
			var wcet vtime.Duration
			for budget > 0 {
				c := vtime.Duration(50+rng.Intn(300)) * vtime.Microsecond
				if c > budget {
					c = budget
				}
				budget -= c
				wcet += c
				if rng.Intn(3) == 0 {
					prog = append(prog, task.Acquire(sem), task.Compute(c), task.Release(sem))
				} else {
					prog = append(prog, task.Compute(c))
				}
			}
			sys.AddTask(task.Spec{
				Name:   fmt.Sprintf("t%d", i),
				Period: period,
				WCET:   wcet,
				Phase:  vtime.Duration(rng.Intn(500)) * vtime.Microsecond,
				Prog:   prog,
			})
		}
		if err := sys.Boot(); err != nil {
			t.Fatalf("seed %d: boot: %v", seed, err)
		}
		// Inject migrations throughout the run: every ~2ms pick a task
		// and move it to the next CPU. Unsafe requests (holding a lock,
		// already in transit) are refused — that's part of the contract.
		k := sys.Kernel()
		ths := k.Threads()
		for ms := 2; ms < 60; ms += 2 {
			at := vtime.Time(0).Add(vtime.Duration(ms) * vtime.Millisecond)
			th := ths[rng.Intn(len(ths))]
			k.Engine().At(at, "test:migrate", func() {
				_ = k.Migrate(th, (th.TCB.CPU+1)%cpus)
			})
		}
		sys.Run(60 * vtime.Millisecond)
		if sys.Trace().Dropped() != 0 {
			t.Fatalf("seed %d: trace ring overflowed", seed)
		}
		an, err := attrib.Analyze(sys.Trace().Events(), 0)
		if err != nil {
			t.Fatalf("seed %d: analyze: %v", seed, err)
		}
		completed += checkExact(t, an, fmt.Sprintf("seed %d (cpus=%d)", seed, cpus))
		for _, a := range an.Activations {
			if !a.Aborted && a.Comp[attrib.Migration] > 0 {
				migratedActs++
			}
		}
	}
	if completed == 0 {
		t.Fatal("no completed activations across all seeds")
	}
	if migratedActs == 0 {
		t.Fatal("no activation ever carried migration time — injections never landed")
	}
	t.Logf("multicore: %d completed activations, %d with migration time", completed, migratedActs)
}

// TestMigrationComponentInReport checks the serialized report: tasks
// that migrated carry a "migration" entry, tasks that never did omit
// it (keeping single-CPU reports byte-stable).
func TestMigrationComponentInReport(t *testing.T) {
	sys := kernel.NewNode(sim.Config{Policy: sim.PolicyEDF, CPUs: 2, TraceCapacity: 1 << 18})
	// Two compute segments so a mid-job migration has a boundary to
	// defer to that is not also the job's end.
	sys.AddTask(task.Spec{Name: "mover", Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond,
		Prog: task.Program{task.Compute(500 * vtime.Microsecond), task.Compute(500 * vtime.Microsecond)}, Affinity: 1})
	sys.AddTask(task.Spec{Name: "stayer", Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond,
		Prog: task.Program{task.Compute(vtime.Millisecond)}, Affinity: 2})
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	k := sys.Kernel()
	var mover = k.Threads()[0]
	// 10.2ms: mid first segment of mover's second job — defers to the
	// segment boundary at 10.5ms, inside the activation.
	k.Engine().At(vtime.Time(0).Add(10200*vtime.Microsecond), "test:migrate", func() {
		if err := k.Migrate(mover, 1); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	sys.Run(50 * vtime.Millisecond)
	an, err := attrib.Analyze(sys.Trace().Events(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := an.Report()
	var sawMover, sawStayer bool
	for _, tr := range rep.Tasks {
		switch tr.Task {
		case "mover":
			sawMover = true
			if _, ok := tr.TotalUs["migration"]; !ok {
				t.Error("mover has no migration entry in TotalUs")
			}
		case "stayer":
			sawStayer = true
			if _, ok := tr.TotalUs["migration"]; ok {
				t.Error("stayer (never migrated) has a migration entry — must be omitted")
			}
		}
	}
	if !sawMover || !sawStayer {
		t.Fatalf("report missing tasks: mover=%v stayer=%v", sawMover, sawStayer)
	}
}
