// Engine control: the automotive scenario that motivates the paper
// (§1: "engine control in automobiles"). A crank-position sensor
// samples engine speed from interrupt context into a §7 state message;
// a fast fuel-injection task and a spark task consume the freshest RPM
// wait-free; a lambda (air/fuel trim) loop shares a calibration object
// with a diagnostics task through a priority-inheriting semaphore; the
// dashboard updates slowly. CSD places the fast loops in the DP queues
// and the slow ones under RM — run with -policy rm to watch the same
// workload degrade.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"emeralds/internal/device"
	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

func main() {
	policy := flag.String("policy", "csd", "scheduler: csd, edf, rm")
	ms := flag.Float64("ms", 2000, "virtual milliseconds to run")
	flag.Parse()

	sys := kernel.NewNode(sim.Config{
		Policy: *policy,
		Name:   "ecu",
	})
	k := sys.Kernel()

	// State messages: crank RPM (written by the sensor ISR) and the
	// lambda trim (written by the lambda task, read by injection).
	rpmState := sys.NewStateMessage("rpm", 3, 8)
	trimState := sys.NewStateMessage("trim", 3, 8)

	// Calibration tables shared between lambda control and diagnostics.
	calibMutex := sys.NewSemaphore("calibration")

	// Actuators record the command timeline.
	injector := &device.Actuator{Name_: "injector"}
	injID := k.RegisterDevice(injector)
	coil := &device.Actuator{Name_: "ignition-coil"}
	coilID := k.RegisterDevice(coil)

	// Crank sensor: engine sweeping 800–4800 RPM at 0.25 Hz, sampled
	// every 1 ms from interrupt context.
	crank := &device.Sensor{
		Name_:   "crank",
		Period:  1 * vtime.Millisecond,
		StateID: rpmState,
		Signal: func(t vtime.Time) int64 {
			phase := 2 * math.Pi * 0.25 * float64(t) / float64(vtime.Second)
			return int64(2800 + 2000*math.Sin(phase))
		},
	}
	crank.Start(k)

	// Fuel injection (2 ms): freshest RPM + trim → injector pulse.
	sys.AddTask(task.Spec{
		Name:   "fuel-injection",
		Period: 2 * vtime.Millisecond,
		Prog: task.Program{
			task.StateRead(trimState),
			task.StateRead(rpmState), // last read → the value the injector latches
			task.Compute(300 * vtime.Microsecond),
			task.IO(injID),
		},
	})

	// Spark timing (2.5 ms).
	sys.AddTask(task.Spec{
		Name:   "spark-timing",
		Period: 2500 * vtime.Microsecond,
		Prog: task.Program{
			task.StateRead(rpmState),
			task.Compute(250 * vtime.Microsecond),
			task.IO(coilID),
		},
	})

	// Lambda control (20 ms): closed-loop trim under the calibration
	// mutex, published as a state message.
	sys.AddTask(task.Spec{
		Name:   "lambda-control",
		Period: 20 * vtime.Millisecond,
		Prog: task.Program{
			task.StateRead(rpmState),
			task.Acquire(calibMutex),
			task.Compute(1 * vtime.Millisecond),
			task.Release(calibMutex),
			task.StateWrite(trimState, 101, 8),
		},
	})

	// Diagnostics (100 ms): walks the calibration tables under the
	// same mutex — the low-priority holder that priority inheritance
	// exists for.
	sys.AddTask(task.Spec{
		Name:   "diagnostics",
		Period: 100 * vtime.Millisecond,
		Prog: task.Program{
			task.Acquire(calibMutex),
			task.Compute(4 * vtime.Millisecond),
			task.Release(calibMutex),
			task.Compute(1 * vtime.Millisecond),
		},
	})

	// Dashboard (250 ms).
	sys.AddTask(task.Spec{
		Name:   "dashboard",
		Period: 250 * vtime.Millisecond,
		Prog: task.Program{
			task.StateRead(rpmState),
			task.Compute(2 * vtime.Millisecond),
		},
	})

	if err := sys.Boot(); err != nil {
		log.Fatal(err)
	}
	sys.Run(vtime.Millis(*ms))

	fmt.Print(sys.Report())
	rpm, _ := k.StateValue(rpmState)
	fmt.Printf("\ncrank samples: %d   final RPM reading: %d\n", crank.Samples, rpm)
	fmt.Printf("injector pulses: %d   coil firings: %d\n", len(injector.Outputs), len(coil.Outputs))
	if n := len(injector.Outputs); n > 0 {
		last := injector.Outputs[n-1]
		fmt.Printf("last injection at %v (RPM=%d)\n", last.At, last.Val)
	}
	st := sys.Stats()
	fmt.Printf("state-message traffic: %d writes, %d reads — zero blocking, zero queueing\n",
		st.StateWrites, st.StateReads)
	if st.Misses > 0 {
		fmt.Printf("deadline misses: %d — try -policy csd\n", st.Misses)
	} else {
		fmt.Println("all deadlines met")
	}
}
