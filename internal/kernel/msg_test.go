package kernel

import (
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/metrics"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

func TestMailboxProducerConsumer(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	mb := k.NewMailbox("q", 4)
	cons := k.AddTask(task.Spec{Name: "cons", Period: 10 * vtime.Millisecond,
		Prog: task.Program{task.Recv(mb), task.Compute(100 * vtime.Microsecond)}})
	k.AddTask(task.Spec{Name: "prod", Period: 10 * vtime.Millisecond, Phase: 2 * vtime.Millisecond,
		Prog: task.Program{task.Compute(100 * vtime.Microsecond), task.Send(mb, 77, 8)}})
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	if cons.TCB.Completions < 9 {
		t.Errorf("consumer completed %d jobs", cons.TCB.Completions)
	}
	if cons.LastMsg() != 77 {
		t.Errorf("last msg = %d", cons.LastMsg())
	}
	if k.Stats().MsgsSent < 9 {
		t.Errorf("sent = %d", k.Stats().MsgsSent)
	}
}

func TestMailboxReceiverGetsQueuedDataWithoutBlocking(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	mb := k.NewMailbox("q", 4)
	k.AddTask(task.Spec{Name: "prod", Period: 10 * vtime.Millisecond,
		Prog: task.Program{task.Send(mb, 5, 8)}})
	cons := k.AddTask(task.Spec{Name: "cons", Period: 10 * vtime.Millisecond, Phase: vtime.Millisecond,
		Prog: task.Program{task.Recv(mb)}})
	boot(t, n)
	k.Run(50 * vtime.Millisecond)
	if cons.TCB.Completions < 4 {
		t.Errorf("consumer completions = %d", cons.TCB.Completions)
	}
	if k.MailboxLen(mb) > 1 {
		t.Errorf("mailbox backlog = %d", k.MailboxLen(mb))
	}
}

func TestMailboxFullBlocksSender(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	mb := k.NewMailbox("q", 1)
	// Sender tries to push 3 messages per job into a 1-slot mailbox.
	snd := k.AddTask(task.Spec{Name: "snd", Period: 20 * vtime.Millisecond,
		Prog: task.Program{
			task.Send(mb, 1, 8),
			task.Send(mb, 2, 8),
			task.Send(mb, 3, 8),
		}})
	rcv := k.AddTask(task.Spec{Name: "rcv", Period: 20 * vtime.Millisecond, Phase: vtime.Millisecond,
		Prog: task.Program{
			task.Recv(mb),
			task.Compute(100 * vtime.Microsecond),
			task.Recv(mb),
			task.Compute(100 * vtime.Microsecond),
			task.Recv(mb),
		}})
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	if snd.TCB.Completions < 4 || rcv.TCB.Completions < 4 {
		t.Errorf("completions: snd=%d rcv=%d", snd.TCB.Completions, rcv.TCB.Completions)
	}
	if rcv.LastMsg() != 3 {
		t.Errorf("last received = %d, want in-order delivery", rcv.LastMsg())
	}
}

func TestInjectMessageFromISR(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	mb := k.NewMailbox("rx", 2)
	cons := k.AddTask(task.Spec{Name: "cons", Period: 10 * vtime.Millisecond,
		Prog: task.Program{task.Recv(mb)}})
	boot(t, n)
	for i := 0; i < 5; i++ {
		v := int64(i)
		k.Engine().At(vtime.Time(vtime.Duration(i*10+2)*vtime.Millisecond), "rx", func() {
			k.InjectMessage(mb, v, 8)
		})
	}
	k.Run(60 * vtime.Millisecond)
	if cons.TCB.Completions != 5 {
		t.Errorf("completions = %d", cons.TCB.Completions)
	}
	if cons.LastMsg() != 4 {
		t.Errorf("last = %d", cons.LastMsg())
	}
}

func TestInjectMessageDropsWhenFull(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	mb := k.NewMailbox("rx", 1)
	boot(t, n)
	ok1 := k.InjectMessage(mb, 1, 8)
	ok2 := k.InjectMessage(mb, 2, 8)
	if !ok1 || ok2 {
		t.Errorf("inject results: %v %v", ok1, ok2)
	}
	if k.Stats().MsgsDropped != 1 {
		t.Errorf("dropped = %d", k.Stats().MsgsDropped)
	}
}

func TestStateMessageFreshnessAcrossTasks(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	sm := k.NewStateMessage("rpm", 3, 8)
	reader := k.AddTask(task.Spec{Name: "r", Period: 10 * vtime.Millisecond, Phase: vtime.Millisecond,
		Prog: task.Program{task.StateRead(sm)}})
	k.AddTask(task.Spec{Name: "w", Period: 5 * vtime.Millisecond,
		Prog: task.Program{task.StateWrite(sm, 123, 8)}})
	boot(t, n)
	k.Run(50 * vtime.Millisecond)
	if reader.LastMsg() != 123 {
		t.Errorf("read %d", reader.LastMsg())
	}
	st := k.Stats()
	if st.StateWrites < 10 || st.StateReads < 5 {
		t.Errorf("writes=%d reads=%d", st.StateWrites, st.StateReads)
	}
	if v, ok := k.StateValue(sm); !ok || v != 123 {
		t.Errorf("StateValue = %d/%v", v, ok)
	}
}

func TestStateMessageNeverBlocksOrSwitches(t *testing.T) {
	// A pure state-message workload on one task must run with zero
	// semaphore activity and no context switches beyond dispatches.
	prof := costmodel.M68040()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	sm := k.NewStateMessage("s", 3, 8)
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond,
		Prog: task.Program{task.StateWrite(sm, 1, 8), task.StateRead(sm)}})
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	st := k.Stats()
	if st.SemContended != 0 || st.SemCharge != 0 {
		t.Errorf("state messages touched the semaphore path: %v", st.SemCharge)
	}
	if st.SyscallCharge != 0 {
		t.Errorf("state messages made system calls: %v", st.SyscallCharge)
	}
}

func TestStateWriteISR(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	sm := k.NewStateMessage("s", 3, 8)
	boot(t, n)
	k.StateWriteISR(sm, 999)
	if v, ok := k.StateValue(sm); !ok || v != 999 {
		t.Errorf("value = %d/%v", v, ok)
	}
}

// TestStateValueDoesNotCount: the out-of-simulation peek must leave the
// counters it is used to report beside unchanged.
func TestStateValueDoesNotCount(t *testing.T) {
	n, k := newEDFNode(nil)
	sm := k.NewStateMessage("s", 3, 8)
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond,
		Prog: task.Program{task.StateWrite(sm, 5, 8), task.StateRead(sm)}})
	boot(t, n)
	k.Run(25 * vtime.Millisecond)
	before, stBefore := *k.Metrics(), k.Stats()
	if v, ok := k.StateValue(sm); !ok || v != 5 {
		t.Fatalf("value = %d/%v", v, ok)
	}
	if *k.Metrics() != before || k.Stats() != stBefore {
		t.Errorf("StateValue moved the counters: state_reads %d → %d",
			before.Get(metrics.StateReads), k.Metrics().Get(metrics.StateReads))
	}
}

type fakeDevice struct {
	name  string
	calls int
	val   int64
}

func (d *fakeDevice) Name() string           { return d.name }
func (d *fakeDevice) IOCost() vtime.Duration { return vtime.Micros(5) }
func (d *fakeDevice) Handle(k *Kernel, th *Thread) {
	d.calls++
	th.Deliver(d.val)
}

func TestDeviceIO(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	dev := &fakeDevice{name: "adc", val: 321}
	id := k.RegisterDevice(dev)
	th := k.AddTask(task.Spec{Period: 10 * vtime.Millisecond,
		Prog: task.Program{task.IO(id)}})
	boot(t, n)
	k.Run(35 * vtime.Millisecond)
	if dev.calls != 4 {
		t.Errorf("driver calls = %d", dev.calls)
	}
	if th.LastMsg() != 321 {
		t.Errorf("delivered = %d", th.LastMsg())
	}
}

func TestIOOnMissingDeviceIsFault(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond,
		Prog: task.Program{task.IO(9), task.Compute(vtime.Millisecond)}})
	boot(t, n)
	k.Run(15 * vtime.Millisecond)
	if k.Stats().Faults == 0 {
		t.Error("missing device not flagged")
	}
}

func TestISRSignalsEvent(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	ev := k.NewEvent("irq-ev")
	th := k.AddTask(task.Spec{Name: "handler-task", Period: 20 * vtime.Millisecond,
		Prog: task.Program{task.WaitEvent(ev), task.Compute(vtime.Millisecond)}})
	boot(t, n)
	for _, at := range []vtime.Duration{5 * vtime.Millisecond, 25 * vtime.Millisecond} {
		k.Engine().At(vtime.Time(at), "irq", func() { k.SignalEventISR(ev) })
	}
	k.Run(45 * vtime.Millisecond)
	// Each job waits from its release to the interrupt 5 ms later, then
	// computes for 1 ms.
	if th.TCB.Completions != 2 || th.TCB.MaxResp != 6*vtime.Millisecond {
		t.Errorf("completions %d, response %v; want 2 jobs of 6ms", th.TCB.Completions, th.TCB.MaxResp)
	}
}

func TestBusSendWithoutPortIsFault(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond,
		Prog: task.Program{task.BusSend(0, 1, 4), task.Compute(vtime.Millisecond)}})
	boot(t, n)
	k.Run(15 * vtime.Millisecond)
	if k.Stats().Faults == 0 {
		t.Error("missing bus port not flagged")
	}
}

type recordPort struct {
	name string
	vals []int64
}

func (p *recordPort) Name() string             { return p.name }
func (p *recordPort) Send(val int64, size int) { p.vals = append(p.vals, val) }

func TestBusSendReachesPort(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	port := &recordPort{name: "tx"}
	id := k.RegisterBusPort(port)
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond,
		Prog: task.Program{task.BusSend(id, 55, 4)}})
	boot(t, n)
	k.Run(25 * vtime.Millisecond)
	if len(port.vals) != 3 || port.vals[0] != 55 {
		t.Errorf("port got %v", port.vals)
	}
}

func TestSignalEventISRInvalidEventPanics(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	boot(t, n)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	k.SignalEventISR(7)
}

// When several senders sleep on a full mailbox, each freed slot must go
// to the highest-priority waiter — pump completes parked sends in
// priority order, not FIFO. Three EDF senders with distinct deadlines
// block behind a 1-slot box; the drain order in the trace must follow
// their deadlines.
func TestCompletePendingSendsPriorityOrder(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true, TraceCapacity: 1 << 12})
	mb := k.NewMailbox("q", 1)
	// EDF priority at t=0 is the period (= relative deadline): "tight"
	// runs first and fills the box; "mid" and "loose" block behind it.
	k.AddTask(task.Spec{Name: "tight", Period: 40 * vtime.Millisecond,
		Prog: task.Program{task.Send(mb, 1, 8)}})
	k.AddTask(task.Spec{Name: "mid", Period: 60 * vtime.Millisecond,
		Prog: task.Program{task.Send(mb, 2, 8)}})
	k.AddTask(task.Spec{Name: "loose", Period: 80 * vtime.Millisecond,
		Prog: task.Program{task.Send(mb, 3, 8)}})
	rcv := k.AddTask(task.Spec{Name: "rcv", Period: 120 * vtime.Millisecond, Phase: 2 * vtime.Millisecond,
		Prog: task.Program{
			task.Recv(mb), task.Compute(100 * vtime.Microsecond),
			task.Recv(mb), task.Compute(100 * vtime.Microsecond),
			task.Recv(mb),
		}})
	boot(t, n)
	k.Run(30 * vtime.Millisecond)
	if rcv.TCB.Completions != 1 {
		t.Fatalf("receiver completions = %d", rcv.TCB.Completions)
	}
	var sends []string
	for _, ev := range k.Trace().Events() {
		if ev.Kind == trace.MsgSend {
			sends = append(sends, ev.Task)
		}
	}
	want := []string{"tight", "mid", "loose"}
	if len(sends) != 3 || sends[0] != want[0] || sends[1] != want[1] || sends[2] != want[2] {
		t.Fatalf("send completion order %v, want %v", sends, want)
	}
	for _, msg := range k.CheckInvariants() {
		t.Errorf("invariant: %s", msg)
	}
}

// An ISR injection into a box kept full by blocked senders must drop
// the sample without disturbing the senders: when the receiver finally
// drains, the blocked sends complete and the dropped ISR value never
// surfaces.
func TestInjectMessageFullBoxPreservesBlockedSenders(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	mb := k.NewMailbox("q", 1)
	snd := k.AddTask(task.Spec{Name: "snd", Period: 50 * vtime.Millisecond,
		Prog: task.Program{task.Send(mb, 1, 8), task.Send(mb, 2, 8)}})
	rcv := k.AddTask(task.Spec{Name: "rcv", Period: 50 * vtime.Millisecond, Phase: 10 * vtime.Millisecond,
		Prog: task.Program{task.Recv(mb), task.Compute(100 * vtime.Microsecond), task.Recv(mb)}})
	boot(t, n)
	// At 2 ms the box holds msg 1 and snd sleeps on msg 2: the ISR
	// sample must be dropped, not queued ahead of the blocked send.
	k.Engine().At(vtime.Time(2*vtime.Millisecond), "rx", func() {
		if k.InjectMessage(mb, 99, 8) {
			t.Error("inject into a full mailbox reported delivery")
		}
	})
	k.Run(40 * vtime.Millisecond)
	if snd.TCB.Completions != 1 || rcv.TCB.Completions != 1 {
		t.Fatalf("completions: snd=%d rcv=%d", snd.TCB.Completions, rcv.TCB.Completions)
	}
	if rcv.LastMsg() != 2 {
		t.Errorf("receiver got %d, want the blocked sender's 2", rcv.LastMsg())
	}
	if k.Stats().MsgsDropped != 1 {
		t.Errorf("dropped = %d", k.Stats().MsgsDropped)
	}
}

// StateWriteISR charges the calibrated wait-free transfer cost to the
// IPC account — and only that: no syscall, no semaphore traffic (§7's
// no-system-call claim extends to interrupt context).
func TestStateWriteISRChargesIPCOnly(t *testing.T) {
	prof := costmodel.M68040()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	sm := k.NewStateMessage("s", 3, 16)
	boot(t, n)
	base := k.Stats().IPCCharge
	k.StateWriteISR(sm, 7)
	st := k.Stats()
	if got, want := st.IPCCharge-base, prof.StateMsgTransfer(16); got != want {
		t.Errorf("IPC charge = %v, want %v", got, want)
	}
	if st.SyscallCharge != 0 || st.SemCharge != 0 {
		t.Errorf("ISR state write touched syscall/sem accounts: %v %v", st.SyscallCharge, st.SemCharge)
	}
	if v, ok := k.StateValue(sm); !ok || v != 7 {
		t.Errorf("value = %d/%v", v, ok)
	}
}
