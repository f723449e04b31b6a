package kernel

import (
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

func TestVLinkKernelProducerConsumer(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	vl := k.NewVLink("q", 4, false)
	cons := k.AddTask(task.Spec{Name: "cons", Period: 10 * vtime.Millisecond,
		Prog: task.Program{task.VRecv(vl), task.Compute(100 * vtime.Microsecond)}})
	k.AddTask(task.Spec{Name: "prod", Period: 10 * vtime.Millisecond, Phase: 2 * vtime.Millisecond,
		Prog: task.Program{task.Compute(100 * vtime.Microsecond), task.VSend(vl, 77, 8, 1)}})
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	if cons.TCB.Completions < 9 {
		t.Errorf("consumer completed %d jobs", cons.TCB.Completions)
	}
	if cons.LastMsg() != 77 {
		t.Errorf("last msg = %d", cons.LastMsg())
	}
	if k.Stats().VLinkMsgs < 9 {
		t.Errorf("vlink msgs = %d", k.Stats().VLinkMsgs)
	}
	if bad := k.CheckInvariants(); bad != nil {
		t.Errorf("invariants: %v", bad)
	}
}

// TestVLinkKernelBatchAllOrNothing: a block-mode batch of 3 into a
// 2-slot link must wait until all three fit, never splitting the batch
// around a competing producer.
func TestVLinkKernelBatchAllOrNothing(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	vl := k.NewVLink("q", 4, false)
	snd := k.AddTask(task.Spec{Name: "snd", Period: 20 * vtime.Millisecond,
		Prog: task.Program{task.VSend(vl, 1, 8, 3), task.VSend(vl, 2, 8, 3)}})
	rcv := k.AddTask(task.Spec{Name: "rcv", Period: 20 * vtime.Millisecond, Phase: vtime.Millisecond,
		Prog: task.Program{
			task.VRecv(vl), task.VRecv(vl), task.VRecv(vl),
			task.Compute(100 * vtime.Microsecond),
			task.VRecv(vl), task.VRecv(vl), task.VRecv(vl),
		}})
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	if snd.TCB.Completions < 4 || rcv.TCB.Completions < 4 {
		t.Errorf("completions: snd=%d rcv=%d", snd.TCB.Completions, rcv.TCB.Completions)
	}
	if rcv.LastMsg() != 2 {
		t.Errorf("last received = %d, want second batch's value", rcv.LastMsg())
	}
	if k.Stats().VLinkDropped != 0 {
		t.Errorf("block-mode link dropped %d messages", k.Stats().VLinkDropped)
	}
	if bad := k.CheckInvariants(); bad != nil {
		t.Errorf("invariants: %v", bad)
	}
}

// TestVLinkKernelDropMode: a drop-mode producer never blocks; surplus
// messages are counted, and the kernel stats mirror the queue counter.
func TestVLinkKernelDropMode(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	vl := k.NewVLink("q", 2, true)
	snd := k.AddTask(task.Spec{Name: "snd", Period: 5 * vtime.Millisecond,
		Prog: task.Program{task.VSend(vl, 9, 8, 4)}})
	// A slow consumer takes one message per period.
	k.AddTask(task.Spec{Name: "rcv", Period: 10 * vtime.Millisecond, Phase: vtime.Millisecond,
		Prog: task.Program{task.VRecv(vl)}})
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	// The sender must never have blocked: every period completes.
	if snd.TCB.Completions < 19 {
		t.Errorf("drop-mode sender completed %d jobs", snd.TCB.Completions)
	}
	st := k.Stats()
	if st.VLinkDropped == 0 {
		t.Error("no drops recorded on an overloaded drop-mode link")
	}
	if st.VLinkDropped != k.vlinkOf(vl).q.Dropped() {
		t.Errorf("stats dropped=%d queue dropped=%d", st.VLinkDropped, k.vlinkOf(vl).q.Dropped())
	}
	if bad := k.CheckInvariants(); bad != nil {
		t.Errorf("invariants: %v", bad)
	}
}

// TestVLinkKernelMPMCFanInFanOut: two producers, two consumers on one
// link; every produced message is consumed exactly once.
func TestVLinkKernelMPMCFanInFanOut(t *testing.T) {
	prof := costmodel.Zero()
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	vl := k.NewVLink("q", 8, false)
	for i := 0; i < 2; i++ {
		k.AddTask(task.Spec{Name: "prod", Period: 10 * vtime.Millisecond,
			Phase: vtime.Duration(i) * vtime.Millisecond,
			Prog:  task.Program{task.VSend(vl, int64(i+1), 8, 2)}})
	}
	var cons [2]*Thread
	for i := 0; i < 2; i++ {
		cons[i] = k.AddTask(task.Spec{Name: "cons", Period: 10 * vtime.Millisecond,
			Phase: vtime.Duration(4+i) * vtime.Millisecond,
			Prog:  task.Program{task.VRecv(vl), task.VRecv(vl)}})
	}
	boot(t, n)
	k.Run(100 * vtime.Millisecond)
	st := k.Stats()
	if st.VLinkMsgs < 36 {
		t.Errorf("vlink msgs = %d", st.VLinkMsgs)
	}
	if cons[0].TCB.Completions < 9 || cons[1].TCB.Completions < 9 {
		t.Errorf("consumer completions: %d, %d", cons[0].TCB.Completions, cons[1].TCB.Completions)
	}
	if k.vlinkOf(vl).q.Len() > 4 {
		t.Errorf("steady-state backlog = %d", k.vlinkOf(vl).q.Len())
	}
	if bad := k.CheckInvariants(); bad != nil {
		t.Errorf("invariants: %v", bad)
	}
}

// TestVLinkKernelChargesIPC: under the M68040 profile vlink traffic
// books into IPCCharge, and a send charges less than the equivalent
// mailbox op (the calibration the ipccmp experiment relies on).
func TestVLinkKernelChargesIPC(t *testing.T) {
	prof := costmodel.M68040()
	if got, mb := prof.VLinkTransfer(32, 1), prof.MailboxTransfer(32); got >= mb {
		t.Fatalf("vlink transfer %v not cheaper than mailbox %v", got, mb)
	}
	if got, sm := prof.VLinkTransfer(32, 1), prof.StateMsgTransfer(32); got <= sm {
		t.Fatalf("vlink transfer %v not pricier than state message %v", got, sm)
	}
	n, k := newNode(sim.Config{Policy: sim.PolicyEDF, Profile: prof, StandardSem: true})
	vl := k.NewVLink("q", 4, false)
	k.AddTask(task.Spec{Name: "prod", Period: 10 * vtime.Millisecond,
		Prog: task.Program{task.VSend(vl, 1, 32, 2)}})
	k.AddTask(task.Spec{Name: "cons", Period: 10 * vtime.Millisecond, Phase: vtime.Millisecond,
		Prog: task.Program{task.VRecv(vl), task.VRecv(vl)}})
	boot(t, n)
	k.Run(50 * vtime.Millisecond)
	if k.Stats().IPCCharge == 0 {
		t.Error("no IPC charge booked for vlink traffic")
	}
	if bad := k.CheckInvariants(); bad != nil {
		t.Errorf("invariants: %v", bad)
	}
}
