package fieldbus

import (
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// newNode builds an EDF node named name on the shared engine eng.
func newNode(eng *sim.Engine, name string) *kernel.Node {
	return kernel.NewNode(sim.Config{Policy: sim.PolicyEDF, Profile: costmodel.Zero(), StandardSem: true,
		Engine: eng, Name: name})
}

func TestFrameTime(t *testing.T) {
	b := NewBus(sim.New(), 1_000_000)
	// 47 framing bits + 8 bytes = 111 bits at 1 Mbit/s = 111 µs.
	if got := b.FrameTime(8); got != vtime.Micros(111) {
		t.Errorf("frame time = %v", got)
	}
	fast := NewBus(sim.New(), 2_000_000)
	if fast.FrameTime(8) != vtime.Micros(55.5) {
		t.Errorf("2 Mbit/s frame time = %v", fast.FrameTime(8))
	}
}

func TestDeliveryToMailbox(t *testing.T) {
	eng := sim.New()
	bus := NewBus(eng, 1_000_000)
	dst := newNode(eng, "dst")
	mb := dst.NewMailbox("rx", 4)
	rx := dst.AddTask(task.Spec{Name: "rx", Period: 10 * vtime.Millisecond,
		Prog: task.Program{task.Recv(mb)}})

	src := newNode(eng, "src")
	port := src.Kernel().RegisterBusPort(bus.NewPort("tx", 1, Delivery{Node: dst.Kernel(), Mailbox: mb}))
	src.AddTask(task.Spec{Name: "tx", Period: 10 * vtime.Millisecond,
		Prog: task.Program{task.BusSend(port, 99, 4)}})

	for _, n := range []*kernel.Node{dst, src} {
		if err := n.Boot(); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(vtime.Time(55 * vtime.Millisecond))
	if rx.TCB.Completions < 5 {
		t.Errorf("receiver completed %d", rx.TCB.Completions)
	}
	if rx.LastMsg() != 99 {
		t.Errorf("value = %d", rx.LastMsg())
	}
	if bus.Transmitted < 5 {
		t.Errorf("frames = %d", bus.Transmitted)
	}
}

func TestDeliveryToStateMessage(t *testing.T) {
	eng := sim.New()
	bus := NewBus(eng, 1_000_000)
	dst := newNode(eng, "dst")
	sm := dst.NewStateMessage("gyro", 3, 8)

	src := newNode(eng, "src")
	port := src.Kernel().RegisterBusPort(bus.NewPort("tx", 1, Delivery{Node: dst.Kernel(), State: sm, UseState: true}))
	src.AddTask(task.Spec{Period: 5 * vtime.Millisecond,
		Prog: task.Program{task.BusSend(port, 1234, 4)}})

	for _, n := range []*kernel.Node{dst, src} {
		if err := n.Boot(); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(vtime.Time(20 * vtime.Millisecond))
	if v, ok := dst.Kernel().StateValue(sm); !ok || v != 1234 {
		t.Errorf("state = %d/%v", v, ok)
	}
}

func TestArbitrationByPriority(t *testing.T) {
	// Two ports queue frames while the bus is busy; the lower-priority
	// id must win every arbitration round.
	eng := sim.New()
	bus := NewBus(eng, 1_000_000)
	dst := newNode(eng, "dst")
	mb := dst.NewMailbox("rx", 16)
	if err := dst.Boot(); err != nil {
		t.Fatal(err)
	}

	hi := bus.NewPort("hi", 1, Delivery{Node: dst.Kernel(), Mailbox: mb})
	lo := bus.NewPort("lo", 5, Delivery{Node: dst.Kernel(), Mailbox: mb})
	// Queue in reverse order while the bus is idle-then-busy: the first
	// send arms arbitration immediately, the rest contend.
	lo.Send(200, 4)
	lo.Send(201, 4)
	hi.Send(100, 4)
	hi.Send(101, 4)
	eng.Run()

	// First frame on the wire was lo's (it armed the idle bus), after
	// which hi must win both arbitrations before lo's second frame.
	var got []int64
	for dst.Kernel().MailboxLen(mb) > 0 {
		// Drain through the kernel API by reading the ipc layer via a
		// receiver task is overkill here; inject order is what counts.
		break
	}
	_ = got
	if bus.Transmitted != 4 {
		t.Fatalf("transmitted = %d", bus.Transmitted)
	}
	if lo.Sent != 2 || hi.Sent != 2 {
		t.Errorf("sent: hi=%d lo=%d", hi.Sent, lo.Sent)
	}
	if bus.Pending() != 0 {
		t.Errorf("pending = %d", bus.Pending())
	}
}

func TestArbitrationOrderObserved(t *testing.T) {
	eng := sim.New()
	bus := NewBus(eng, 1_000_000)
	dst := newNode(eng, "dst")
	var order []int64
	sm := dst.NewStateMessage("last", 8, 8)
	_ = sm
	mb := dst.NewMailbox("rx", 16)
	rx := dst.AddTask(task.Spec{Name: "rx", Period: vtime.Millisecond,
		Prog: task.Program{task.Recv(mb)}})
	if err := dst.Boot(); err != nil {
		t.Fatal(err)
	}
	hi := bus.NewPort("hi", 1, Delivery{Node: dst.Kernel(), Mailbox: mb})
	lo := bus.NewPort("lo", 5, Delivery{Node: dst.Kernel(), Mailbox: mb})
	// All four frames contend at the first arbitration (the bus is
	// idle until the engine runs): CAN semantics say the
	// lowest-priority-value port wins every round, regardless of who
	// queued first.
	lo.Send(200, 4)
	hi.Send(100, 4)
	lo.Send(201, 4)
	hi.Send(101, 4)
	probe := func() {
		order = append(order, rx.LastMsg())
	}
	for i := 1; i <= 8; i++ {
		eng.At(vtime.Time(vtime.Duration(i)*vtime.Millisecond), "probe", probe)
	}
	eng.RunUntil(vtime.Time(10 * vtime.Millisecond))
	// The receiver drains one frame per ms: both hi frames must arrive
	// before either lo frame.
	want := []int64{100, 101, 200, 201}
	seen := map[int64]int{}
	idx := 0
	for _, v := range order {
		if idx < len(want) && v == want[idx] {
			seen[v] = 1
			idx++
		}
	}
	if idx != len(want) {
		t.Errorf("delivery order %v, want subsequence %v", order, want)
	}
}

func TestOversizedPayloadClamped(t *testing.T) {
	eng := sim.New()
	bus := NewBus(eng, 1_000_000)
	dst := newNode(eng, "dst")
	mb := dst.NewMailbox("rx", 4)
	if err := dst.Boot(); err != nil {
		t.Fatal(err)
	}
	p := bus.NewPort("tx", 1, Delivery{Node: dst.Kernel(), Mailbox: mb})
	p.Send(1, 64) // CAN frames carry at most 8 bytes
	eng.Run()
	if bus.BitsOnWire != 47+8*8 {
		t.Errorf("bits = %d", bus.BitsOnWire)
	}
}

func TestUnroutedFrameDropped(t *testing.T) {
	eng := sim.New()
	bus := NewBus(eng, 1_000_000)
	p := bus.NewPort("tx", 1, Delivery{})
	p.Send(1, 4)
	eng.Run()
	if p.Dropped != 1 {
		t.Errorf("dropped = %d", p.Dropped)
	}
}

func TestBusString(t *testing.T) {
	b := NewBus(sim.New(), 2_000_000)
	b.NewPort("a", 1, Delivery{})
	if b.String() == "" {
		t.Error("empty String")
	}
	if b.FrameTime(0) <= 0 {
		t.Error("framing-only time must be positive")
	}
}

func TestDefaultBitrate(t *testing.T) {
	b := NewBus(sim.New(), 0)
	if b.FrameTime(8) != vtime.Micros(111) {
		t.Errorf("default bitrate frame time = %v", b.FrameTime(8))
	}
}
