// Avionics: the distributed scenario of §2 — several nodes joined by a
// low-speed (1 Mbit/s) fieldbus. A sensor node samples gyro rates and
// broadcasts them; the flight-control node closes the loop and sends
// surface commands; the actuator node drives the elevator servo. All
// three kernels share one virtual clock, and frames arbitrate on the
// bus CAN-style. Per §3, nodes talk straight to the network device
// driver — received frames land in a mailbox (commands) or a state
// message (sensor data) from interrupt context; there is no in-kernel
// protocol stack.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"emeralds/internal/device"
	"emeralds/internal/fieldbus"
	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

func main() {
	ms := flag.Float64("ms", 1000, "virtual milliseconds to run")
	bitrate := flag.Int64("bitrate", 1_000_000, "fieldbus bit rate (the paper's range: 1–2 Mbit/s)")
	flag.Parse()

	eng := sim.New()
	bus := fieldbus.NewBus(eng, *bitrate)

	// --- actuator node ------------------------------------------------
	actNode := kernel.NewNode(sim.Config{Engine: eng, Name: "actuator"})
	cmdMbox := actNode.NewMailbox("surface-cmd", 4)
	servo := &device.Actuator{Name_: "elevator-servo"}
	servoID := actNode.Kernel().RegisterDevice(servo)
	actNode.AddTask(task.Spec{
		Name:   "servo-drive",
		Period: 10 * vtime.Millisecond,
		Prog: task.Program{
			task.Recv(cmdMbox),
			task.Compute(200 * vtime.Microsecond),
			task.IO(servoID),
		},
	})

	// --- control node --------------------------------------------------
	ctrlNode := kernel.NewNode(sim.Config{Engine: eng, Name: "flight-ctrl"})
	gyroState := ctrlNode.NewStateMessage("gyro", 3, 8)
	cmdPort := ctrlNode.Kernel().RegisterBusPort(bus.NewPort("ctrl-tx", 2, fieldbus.Delivery{
		Node: actNode.Kernel(), Mailbox: cmdMbox,
	}))
	ctrlNode.AddTask(task.Spec{
		Name:   "pitch-loop",
		Period: 10 * vtime.Millisecond,
		Prog: task.Program{
			task.StateRead(gyroState),
			task.Compute(1 * vtime.Millisecond), // control law
			task.BusSend(cmdPort, 0, 4),
		},
	})
	ctrlNode.AddTask(task.Spec{
		Name:   "nav-filter",
		Period: 40 * vtime.Millisecond,
		WCET:   4 * vtime.Millisecond,
	})

	// --- sensor node ----------------------------------------------------
	sensNode := kernel.NewNode(sim.Config{Engine: eng, Name: "sensors"})
	gyroLocal := sensNode.NewStateMessage("gyro-local", 3, 8)
	gyroPort := sensNode.Kernel().RegisterBusPort(bus.NewPort("gyro-tx", 1, fieldbus.Delivery{
		Node: ctrlNode.Kernel(), State: gyroState, UseState: true,
	}))
	gyro := &device.Sensor{
		Name_:   "gyro",
		Period:  2 * vtime.Millisecond,
		StateID: gyroLocal,
		Signal: func(t vtime.Time) int64 {
			return int64(100 * math.Sin(2*math.Pi*2*float64(t)/float64(vtime.Second)))
		},
	}
	gyro.Start(sensNode.Kernel())
	sensNode.AddTask(task.Spec{
		Name:   "gyro-tx",
		Period: 5 * vtime.Millisecond,
		Prog: task.Program{
			task.StateRead(gyroLocal),
			task.Compute(100 * vtime.Microsecond),
			task.BusSend(gyroPort, 0, 4),
		},
	})
	sensNode.AddTask(task.Spec{
		Name:   "air-data",
		Period: 25 * vtime.Millisecond,
		WCET:   2 * vtime.Millisecond,
	})

	for _, n := range []*kernel.Node{sensNode, ctrlNode, actNode} {
		if err := n.Boot(); err != nil {
			log.Fatalf("%s: %v", n.Kernel().Name(), err)
		}
	}
	eng.RunUntil(vtime.Time(vtime.Millis(*ms)))

	for _, n := range []*kernel.Node{sensNode, ctrlNode, actNode} {
		fmt.Print(n.Report())
		fmt.Println()
	}
	fmt.Printf("bus: %d frames, %d bits on wire, one frame takes %v\n",
		bus.Transmitted, bus.BitsOnWire, bus.FrameTime(4))
	fmt.Printf("servo commands delivered: %d (gyro samples: %d)\n",
		len(servo.Outputs), gyro.Samples)
	missTotal := sensNode.Stats().Misses + ctrlNode.Stats().Misses + actNode.Stats().Misses
	fmt.Printf("deadline misses across all nodes: %d\n", missTotal)
}
