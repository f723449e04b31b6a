package kernel_test

import (
	"fmt"

	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
	"emeralds/internal/workload"
)

// Example boots the recommended build (CSD-3, optimized semaphores) on
// the paper's Table 2 workload — the set that is infeasible under pure
// RM — and shows it running clean.
func Example() {
	n := kernel.NewNode(sim.Config{})
	for _, s := range workload.Table2() {
		n.AddTask(s)
	}
	if err := n.Boot(); err != nil {
		panic(err)
	}
	n.Run(1 * vtime.Second)
	st := n.Stats()
	fmt.Printf("scheduler=%s partition=%v misses=%d\n",
		n.Kernel().Scheduler().Name(), n.Partition().DPSizes, st.Misses)
	// Output:
	// scheduler=CSD-3 partition=[2 3] misses=0
}

// ExampleNode_AddTask shows a task body sharing an object under a
// priority-inheriting mutex; the §6.2.1 parser adds the semaphore hint
// to the wait call automatically.
func ExampleNode_AddTask() {
	n := kernel.NewNode(sim.Config{})
	mutex := n.NewSemaphore("object")
	tick := n.NewEvent("tick")

	th := n.AddTask(task.Spec{
		Name:   "consumer",
		Period: 10 * vtime.Millisecond,
		Prog: task.Program{
			task.WaitEvent(tick), // ← parser inserts hint=mutex here
			task.Acquire(mutex),
			task.Compute(500 * vtime.Microsecond),
			task.Release(mutex),
		},
	})
	fmt.Printf("hint on the wait call: %d (mutex id %d)\n",
		th.TCB.Spec.Prog[0].Hint, mutex)
	// Output:
	// hint on the wait call: 0 (mutex id 0)
}

// ExampleNewNode_standardSem compares the §6.1 standard build against
// the §6.2 optimized build on the same contention pattern.
func ExampleNewNode_standardSem() {
	run := func(standard bool) uint64 {
		n := kernel.NewNode(sim.Config{StandardSem: standard})
		sem := n.NewSemaphore("S")
		ev := n.NewEvent("E")
		n.AddTask(task.Spec{
			Name: "waiter", Period: 10 * vtime.Millisecond,
			Prog: task.Program{
				task.WaitEvent(ev),
				task.Acquire(sem),
				task.Compute(100 * vtime.Microsecond),
				task.Release(sem),
			},
		})
		n.AddTask(task.Spec{
			Name: "holder", Period: 10 * vtime.Millisecond, Phase: 500 * vtime.Microsecond,
			Prog: task.Program{
				task.Acquire(sem),
				task.Compute(vtime.Millisecond),
				task.SignalEvent(ev), // E arrives while S is held
				task.Compute(vtime.Millisecond),
				task.Release(sem),
			},
		})
		if err := n.Boot(); err != nil {
			panic(err)
		}
		n.Run(1 * vtime.Second)
		return n.Stats().SavedSwitches
	}
	fmt.Printf("standard build saved %d switches; optimized build saved %d\n",
		run(true), run(false))
	// Output:
	// standard build saved 0 switches; optimized build saved 100
}
