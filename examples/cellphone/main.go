// Cellphone: the hand-held scenario of §1 ("voice compression in
// cellular phones") — a voice pipeline on one small node. A codec
// frame arrives every 20 ms from the microphone ADC; the encoder
// compresses it and hands it to the radio task through a mailbox; the
// keypad/UI and battery monitor run at long periods. The encoder and
// radio share a codec configuration object under a semaphore, with the
// blocking receive immediately preceding the lock — the §6.2 pattern
// the code parser targets. The example runs the same workload under
// the standard and optimized semaphore builds and reports the switches
// saved.
package main

import (
	"flag"
	"fmt"
	"log"

	"emeralds/internal/device"
	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

func build(standard bool) (*kernel.Node, *device.Actuator) {
	sys := kernel.NewNode(sim.Config{
		Name:        "phone",
		StandardSem: standard,
	})
	k := sys.Kernel()

	frames := sys.NewMailbox("pcm-frames", 4)
	packets := sys.NewMailbox("packets", 4)
	codecCfg := sys.NewSemaphore("codec-config")
	rf := &device.Actuator{Name_: "rf-frontend"}
	rfID := k.RegisterDevice(rf)

	// Microphone ADC delivers a PCM frame every 20 ms from interrupt
	// context.
	mic := &device.MailboxSensor{
		Name_:  "mic-adc",
		Period: 20 * vtime.Millisecond,
		MboxID: frames,
		Size:   160, // 20 ms of 8 kHz 8-bit audio
		Signal: func(t vtime.Time) int64 { return int64(t) & 0xffff },
	}
	mic.Start(k)

	// Encoder: blocks for a frame, locks the codec config, compresses,
	// ships the packet. The parser hints the Recv with codecCfg.
	sys.AddTask(task.Spec{
		Name:     "voice-encoder",
		Period:   20 * vtime.Millisecond,
		Deadline: 40 * vtime.Millisecond, // end-to-end pipeline budget
		Phase:    19 * vtime.Millisecond, // wake just before each frame lands
		Prog: task.Program{
			task.Recv(frames),
			task.Acquire(codecCfg),
			task.Compute(6 * vtime.Millisecond), // compression
			task.Release(codecCfg),
			task.Send(packets, 1, 33), // 33-byte compressed frame
		},
	})

	// Radio: blocks for a packet and keys the RF front end.
	sys.AddTask(task.Spec{
		Name:     "radio-tx",
		Period:   20 * vtime.Millisecond,
		Deadline: 40 * vtime.Millisecond,
		Phase:    20 * vtime.Millisecond,
		Prog: task.Program{
			task.Recv(packets),
			task.Compute(2 * vtime.Millisecond),
			task.IO(rfID),
		},
	})

	// Control task that retunes the codec occasionally — the
	// low-priority lock holder the encoder contends with.
	sys.AddTask(task.Spec{
		Name:   "codec-control",
		Period: 100 * vtime.Millisecond,
		Phase:  18 * vtime.Millisecond, // retune straddles a frame arrival
		Prog: task.Program{
			task.Acquire(codecCfg),
			task.Compute(3 * vtime.Millisecond),
			task.Release(codecCfg),
		},
	})

	// UI scan and battery monitor: slow housekeeping.
	sys.AddTask(task.Spec{
		Name:   "keypad-ui",
		Period: 50 * vtime.Millisecond,
		WCET:   1 * vtime.Millisecond,
	})
	sys.AddTask(task.Spec{
		Name:   "battery-mon",
		Period: 500 * vtime.Millisecond,
		WCET:   2 * vtime.Millisecond,
	})

	return sys, rf
}

func main() {
	ms := flag.Float64("ms", 2000, "virtual milliseconds to run")
	flag.Parse()

	var stats [2]kernel.Stats
	for i, standard := range []bool{true, false} {
		sys, rf := build(standard)
		if err := sys.Boot(); err != nil {
			log.Fatal(err)
		}
		sys.Run(vtime.Millis(*ms))
		stats[i] = sys.Stats()
		if !standard {
			fmt.Print(sys.Report())
			fmt.Printf("\nRF bursts transmitted: %d\n", len(rf.Outputs))
		}
	}
	std, opt := stats[0], stats[1]
	fmt.Printf("\nsemaphore scheme comparison over %.0f ms of speech:\n", *ms)
	fmt.Printf("  standard : %5d context switches, overhead %v\n", std.ContextSwitches, std.TotalOverhead())
	fmt.Printf("  optimized: %5d context switches, overhead %v (%d switches saved)\n",
		opt.ContextSwitches, opt.TotalOverhead(), opt.SavedSwitches)
	if std.Misses+opt.Misses == 0 {
		fmt.Println("  all codec deadlines met under both builds")
	}
}
