// Quickstart: boot an EMERALDS system with the recommended build
// (CSD-3 scheduler, optimized semaphores), run a small periodic
// workload that shares an object through a semaphore and publishes
// state through a §7 state message, and print the schedule report.
package main

import (
	"fmt"
	"log"

	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

func main() {
	// A system with tracing on, so we can show the first dispatches.
	sys := kernel.NewNode(sim.Config{TraceCapacity: 4096, Name: "quickstart", RecordResponses: true})

	// Kernel objects: a mutex guarding a shared object, an event the
	// producer signals, and a state message carrying the latest value.
	mutex := sys.NewSemaphore("shared-object")
	tick := sys.NewEvent("tick")
	latest := sys.NewStateMessage("latest", 3, 8)

	// Consumer (5 ms, highest priority): waits for the tick, then locks
	// the shared object. The §6.2.1 parser (run automatically by
	// AddTask) adds the semaphore hint to the wait call, so when the
	// tick arrives while the producer still holds the mutex, the
	// kernel inherits priority on the spot, leaves the consumer
	// blocked, and saves the §6.2 context switch C₂.
	sys.AddTask(task.Spec{
		Name:   "consumer",
		Period: 5 * vtime.Millisecond,
		Prog: task.Program{
			task.WaitEvent(tick),
			task.Acquire(mutex),
			task.Compute(300 * vtime.Microsecond),
			task.Release(mutex),
			task.StateRead(latest),
			task.Compute(200 * vtime.Microsecond),
		},
	})

	// Producer (5 ms): updates the shared object under the mutex,
	// signalling the consumer mid-critical-section, then publishes the
	// freshest value wait-free.
	sys.AddTask(task.Spec{
		Name:   "producer",
		Period: 5 * vtime.Millisecond,
		Prog: task.Program{
			task.Compute(400 * vtime.Microsecond),
			task.Acquire(mutex),
			task.Compute(100 * vtime.Microsecond), // critical section...
			task.SignalEvent(tick),                // ...signals the consumer mid-section
			task.Compute(100 * vtime.Microsecond),
			task.Release(mutex),
			task.StateWrite(latest, 1, 8),
		},
	})

	// Background housekeeping (100 ms): long-period FP-queue resident.
	sys.AddTask(task.Spec{
		Name:   "housekeeping",
		Period: 100 * vtime.Millisecond,
		WCET:   2 * vtime.Millisecond,
	})

	if err := sys.Boot(); err != nil {
		log.Fatal(err)
	}
	sys.Run(1 * vtime.Second)

	fmt.Println("First 20 scheduler events:")
	for i, e := range sys.Trace().Events() {
		if i >= 20 {
			break
		}
		fmt.Println(" ", e)
	}
	fmt.Println()
	fmt.Print(sys.Report())
	st := sys.Stats()
	fmt.Printf("\ncontext switches saved by the optimized semaphore scheme: %d\n", st.SavedSwitches)
}
