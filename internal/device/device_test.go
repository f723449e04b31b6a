package device

import (
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// newNode builds the single-CPU EDF node the device tests drive.
func newNode() *kernel.Node {
	return kernel.NewNode(sim.Config{Policy: sim.PolicyEDF, Profile: costmodel.Zero(), StandardSem: true})
}

func TestSensorSamplesPeriodically(t *testing.T) {
	n := newNode()
	k := n.Kernel()
	sm := k.NewStateMessage("sig", 3, 8)
	s := &Sensor{
		Name_:   "gyro",
		Period:  2 * vtime.Millisecond,
		StateID: sm,
		Signal:  func(tm vtime.Time) int64 { return int64(tm) / int64(vtime.Millisecond) },
	}
	s.Start(k)
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	k.Run(20 * vtime.Millisecond)
	if s.Samples != 10 {
		t.Errorf("samples = %d", s.Samples)
	}
	if v, ok := k.StateValue(sm); !ok || v != 20 {
		t.Errorf("latest sample = %d/%v", v, ok)
	}
}

func TestSensorStop(t *testing.T) {
	n := newNode()
	k := n.Kernel()
	sm := k.NewStateMessage("sig", 3, 8)
	s := &Sensor{Name_: "g", Period: vtime.Millisecond, StateID: sm,
		Signal: func(vtime.Time) int64 { return 1 }}
	s.Start(k)
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	k.Run(5 * vtime.Millisecond)
	s.Stop()
	k.Run(10 * vtime.Millisecond)
	if s.Samples > 6 {
		t.Errorf("samples after stop = %d", s.Samples)
	}
}

func TestMailboxSensorDeliversAndDrops(t *testing.T) {
	n := newNode()
	k := n.Kernel()
	mb := k.NewMailbox("frames", 2)
	s := &MailboxSensor{Name_: "mic", Period: vtime.Millisecond, MboxID: mb, Size: 8,
		Signal: func(vtime.Time) int64 { return 7 }}
	s.Start(k)
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	// Nobody consumes: the 2-slot mailbox fills, further samples drop.
	k.Run(10 * vtime.Millisecond)
	if s.Samples != 10 {
		t.Errorf("samples = %d", s.Samples)
	}
	if s.Dropped != 8 {
		t.Errorf("dropped = %d", s.Dropped)
	}
}

func TestActuatorRecordsTimeline(t *testing.T) {
	n := newNode()
	k := n.Kernel()
	act := &Actuator{Name_: "servo"}
	id := k.RegisterDevice(act)
	sm := k.NewStateMessage("cmd", 3, 8)
	k.AddTask(task.Spec{Period: 5 * vtime.Millisecond,
		Prog: task.Program{task.StateRead(sm), task.IO(id)}})
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	k.StateWriteISR(sm, 88)
	k.Run(12 * vtime.Millisecond)
	if len(act.Outputs) != 3 {
		t.Fatalf("outputs = %d", len(act.Outputs))
	}
	if act.Outputs[0].Val != 88 {
		t.Errorf("first command = %d", act.Outputs[0].Val)
	}
	if act.Outputs[1].At <= act.Outputs[0].At {
		t.Error("timeline not increasing")
	}
	if act.IOCost() == 0 {
		t.Error("default IO cost should be non-zero")
	}
}

func TestRegisterDeliversValue(t *testing.T) {
	n := newNode()
	k := n.Kernel()
	reg := &Register{Name_: "adc", Value: func(tm vtime.Time) int64 { return 500 }}
	id := k.RegisterDevice(reg)
	th := k.AddTask(task.Spec{Period: 5 * vtime.Millisecond,
		Prog: task.Program{task.IO(id)}})
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	k.Run(12 * vtime.Millisecond)
	if th.LastMsg() != 500 {
		t.Errorf("value = %d", th.LastMsg())
	}
	if reg.Reads != 3 {
		t.Errorf("reads = %d", reg.Reads)
	}
	if reg.Name() != "adc" {
		t.Errorf("name = %q", reg.Name())
	}
}
