package kernel

import (
	"fmt"

	"emeralds/internal/ipc"
	"emeralds/internal/mem"
	"emeralds/internal/metrics"
	"emeralds/internal/task"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

// This file implements the state messages of §7 (wait-free shared
// state; the queue objects are in link.go), plus the memory-protected
// load/store path, device driver calls, interrupts, and the fieldbus
// attachment points used by the distributed examples.

// --- state messages (§7) ---------------------------------------------

// NewStateMessage creates a state message with the given version-buffer
// depth and payload size, returning its id.
func (k *Kernel) NewStateMessage(name string, depth, size int) int {
	if name == "" {
		name = fmt.Sprintf("state%d", len(k.states))
	}
	sm := ipc.NewStateMessage(len(k.states), name, depth, size)
	sm.Observe(k.met)
	k.chargeRAM("statemsg", mem.RAMPerStateHdr+sm.Depth()*sm.Size())
	k.states = append(k.states, sm)
	return sm.ID
}

func (k *Kernel) state(id int) *ipc.StateMessage {
	if id < 0 || id >= len(k.states) {
		panic(fmt.Sprintf("kernel: no state message %d", id))
	}
	return k.states[id]
}

// StateValue reads a state message outside the simulation (tests,
// examples' final reports). The peek is not counted as a state read.
func (k *Kernel) StateValue(id int) (int64, bool) { return k.state(id).Peek() }

func (k *Kernel) doStateWrite(th *Thread, op task.Op) {
	sm := k.state(op.Obj)
	sm.Write(op.Val)
	th.TCB.PC++
	k.trAdd(trace.StateWrite, th.TCB.Name, sm.Name)
}

func (k *Kernel) doStateRead(th *Thread, op task.Op) {
	sm := k.state(op.Obj)
	if v, ok := sm.Read(); ok {
		th.msgVal = v
	}
	th.TCB.PC++
	k.trAdd(trace.StateRead, th.TCB.Name, sm.Name)
}

// StateWriteISR publishes a state-message value from interrupt context
// (sensor ISRs in the examples).
func (k *Kernel) StateWriteISR(id int, val int64) {
	k.exec = k.cpus[0]
	k.charge(k.prof.StateMsgTransfer(k.state(id).Size()), &k.stats.IPCCharge)
	k.state(id).Write(val)
	k.trAdd(trace.StateWrite, "isr", k.state(id).Name)
}

// --- memory-protected access -----------------------------------------

func (k *Kernel) doMemOp(th *Thread, op task.Op) {
	var err error
	if op.Kind == task.OpLoad {
		var v int64
		v, err = k.memsys.Load(th.Proc, op.Obj, op.Off, op.Size)
		if err == nil {
			th.msgVal = v
		}
	} else {
		err = k.memsys.Store(th.Proc, op.Obj, op.Off, op.Val, op.Size)
	}
	if err != nil {
		// Protection fault: the job is killed, full memory protection
		// being the point of multi-threaded processes (§3).
		k.exec.met.Inc(metrics.Faults)
		k.trAdd(trace.Fault, th.TCB.Name, err.Error())
		k.killJob(th)
		return
	}
	th.TCB.PC++
}

// killJob aborts the running job; the thread blocks until its next
// release.
func (k *Kernel) killJob(th *Thread) {
	k.releaseAllHeld(th)
	th.jobActive = false
	th.TCB.PC = 0
	th.TCB.OpRemaining = 0
	th.TCB.PendingHint = task.NoHint
	k.clearPreAcq(th)
	th.TCB.State = task.Blocked
	k.blockTask(th.TCB)
	// Close the occupancy explicitly: without an ending event the
	// consumed-overhead accumulator would leak into the next task's
	// occupancy and trace replay would see the victim still running.
	k.traceOccupancyEnd(th, trace.BlockEv, "job-killed")
	k.reschedule()
}

// --- devices, interrupts, fieldbus ------------------------------------

// RegisterDevice attaches a user-level device driver, returning the id
// used by task.IO ops.
func (k *Kernel) RegisterDevice(d Device) int {
	k.devs = append(k.devs, d)
	return len(k.devs) - 1
}

func (k *Kernel) device(id int) Device {
	if id < 0 || id >= len(k.devs) {
		return nil
	}
	return k.devs[id]
}

func (k *Kernel) doIO(th *Thread, op task.Op) {
	d := k.device(op.Obj)
	if d == nil {
		k.exec.met.Inc(metrics.Faults)
		k.trAdd(trace.Fault, th.TCB.Name, fmt.Sprintf("no device %d", op.Obj))
		th.TCB.PC++
		return
	}
	th.TCB.PC++
	d.Handle(k, th)
}

// BindISR installs a handler for an interrupt vector.
func (k *Kernel) BindISR(vector int, handler func(*Kernel)) {
	if k.isrs == nil {
		k.isrs = map[int]func(*Kernel){}
	}
	k.isrs[vector] = handler
}

// Raise dispatches an interrupt immediately (on CPU 0, where external
// interrupts are wired).
func (k *Kernel) Raise(vector int) {
	k.exec = k.cpus[0]
	k.exec.met.Inc(metrics.Interrupts)
	k.charge(k.prof.InterruptEntry, &k.stats.TimerCharge)
	k.trAdd(trace.Interrupt, "isr", fmt.Sprintf("vector %d", vector))
	if h := k.isrs[vector]; h != nil {
		h(k)
	}
}

// RaiseAfter schedules an interrupt d from now.
func (k *Kernel) RaiseAfter(d vtime.Duration, vector int) {
	k.eng.After(d, fmt.Sprintf("irq%d", vector), func() { k.Raise(vector) })
}

// RegisterBusPort attaches a fieldbus interface, returning the id used
// by task.BusSend ops.
func (k *Kernel) RegisterBusPort(p BusPort) int {
	k.ports = append(k.ports, p)
	return len(k.ports) - 1
}

func (k *Kernel) doBusSend(th *Thread, op task.Op) {
	if op.Obj < 0 || op.Obj >= len(k.ports) {
		k.exec.met.Inc(metrics.Faults)
		k.trAdd(trace.Fault, th.TCB.Name, fmt.Sprintf("no bus port %d", op.Obj))
		th.TCB.PC++
		return
	}
	k.ports[op.Obj].Send(op.Val, op.Size)
	th.TCB.PC++
	k.trAdd(trace.MsgSend, th.TCB.Name, k.ports[op.Obj].Name())
}

// SetAlarm arms a one-shot software timer (Figure 1's "timers / clock
// services"): after d of virtual time the kernel signals the given
// event from interrupt context. Returns immediately; the alarm fires
// even if nobody waits yet (the event latches).
func (k *Kernel) SetAlarm(d vtime.Duration, eventID int) {
	k.event(eventID) // validate now, not at fire time
	k.eng.After(d, "alarm", func() {
		k.exec = k.cpus[0]
		k.exec.met.Inc(metrics.Interrupts)
		k.charge(k.prof.TimerInterrupt, &k.stats.TimerCharge)
		k.signalEvent(eventID, "alarm")
		k.reschedule()
	})
}
