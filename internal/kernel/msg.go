package kernel

import (
	"fmt"

	"emeralds/internal/ipc"
	"emeralds/internal/mem"
	"emeralds/internal/metrics"
	"emeralds/internal/task"
	"emeralds/internal/trace"
)

// This file implements the state messages of §7 (wait-free shared
// state; the queue objects are in link.go), plus device driver calls
// and the fieldbus attachment points used by the distributed examples.

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

// --- devices, fieldbus ------------------------------------------------

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
