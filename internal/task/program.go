package task

import (
	"fmt"

	"emeralds/internal/vtime"
)

// NoHint is the semaphore-hint value meaning "the next blocking call is
// not followed by acquire_sem" (the paper uses −1, §6.2.1).
const NoHint = -1

// OpKind enumerates the operations a task body can perform. A task's
// body is a straight-line sequence of ops executed once per period; the
// kernel interpreter charges virtual time for each.
type OpKind uint8

const (
	// OpCompute burns Dur of CPU time. Preemptible: a higher-priority
	// release splits the op and the remainder resumes later.
	OpCompute OpKind = iota
	// OpAcquire locks semaphore Obj (blocking, with priority
	// inheritance).
	OpAcquire
	// OpRelease unlocks semaphore Obj.
	OpRelease
	// OpWaitEvent blocks until event Obj is signaled. Carries Hint: the
	// id of the semaphore the task will acquire immediately afterwards,
	// or NoHint. Hints are normally inserted by the code parser.
	OpWaitEvent
	// OpSignalEvent signals event Obj, unblocking its waiters.
	OpSignalEvent
	// OpSend sends Size bytes with value Val to mailbox Obj (blocks
	// while the mailbox is full).
	OpSend
	// OpRecv receives from mailbox Obj (blocks while empty). Carries
	// Hint like OpWaitEvent.
	OpRecv
	// OpStateWrite publishes Val (Size bytes) to state message Obj.
	// Never blocks (§7: single-writer wait-free).
	OpStateWrite
	// OpStateRead reads the freshest value of state message Obj.
	// Never blocks.
	OpStateRead
	// OpCondWait atomically releases semaphore Hint and waits on
	// condition variable Obj, re-acquiring the semaphore before
	// returning.
	OpCondWait
	// OpCondSignal wakes one waiter of condition variable Obj.
	OpCondSignal
	// OpCondBroadcast wakes all waiters of condition variable Obj.
	OpCondBroadcast
	// Kinds 12 and 13 were memory loads and stores, which are no longer
	// modelled. Repro files store kinds by number, so the slots stay
	// blank and the later kinds keep their numbers.
	_
	_
	// OpIO performs a device operation on device Obj (driver call).
	OpIO
	// OpBusSend queues Size bytes to the fieldbus interface Obj.
	OpBusSend
	// OpDelay blocks the task for Dur of virtual time (bounded sleep).
	// Carries Hint like the other blocking calls.
	OpDelay
	// OpVSend enqueues N messages (Val, Size bytes each) onto virtual
	// link Obj in one batched claim. On a block-mode link the batch is
	// all-or-nothing: it blocks until the link has room for all N; on a
	// drop-mode link it never blocks and surplus messages are dropped
	// and counted.
	OpVSend
	// OpVRecv dequeues one message from virtual link Obj (blocks while
	// empty on block- and drop-mode links alike). Carries Hint like
	// OpWaitEvent.
	OpVRecv
)

var opNames = [...]string{
	"compute", "acquire", "release", "wait", "signal",
	"send", "recv", "state-write", "state-read",
	"cond-wait", "cond-signal", "cond-broadcast",
	"", "", "io", "bus-send", "delay",
	"vsend", "vrecv",
}

// Valid reports whether k names an op, as opposed to a blank slot or a
// number past the last kind.
func (k OpKind) Valid() bool { return int(k) < len(opNames) && opNames[k] != "" }

func (k OpKind) String() string {
	if k.Valid() {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one instruction of a task body.
type Op struct {
	Kind OpKind
	Dur  vtime.Duration // OpCompute only
	Obj  int            // object id (semaphore, event, mailbox, …)
	Hint int            // semaphore hint for blocking ops; NoHint if none
	Val  int64          // value for writes/sends
	Size int            // payload size in bytes for IPC ops
	N    int            // batch size for OpVSend; 0 means 1
}

// Batch is the effective message count of an OpVSend (N, minimum 1).
func (o Op) Batch() int {
	if o.N < 1 {
		return 1
	}
	return o.N
}

// Blocking reports whether the op can block the calling task (and hence
// is a candidate to carry a semaphore hint, §6.2.1).
func (o Op) Blocking() bool {
	switch o.Kind {
	case OpWaitEvent, OpRecv, OpCondWait, OpAcquire, OpSend, OpDelay,
		OpVSend, OpVRecv:
		return true
	}
	return false
}

func (o Op) String() string {
	switch o.Kind {
	case OpCompute:
		return fmt.Sprintf("compute(%v)", o.Dur)
	case OpDelay:
		return fmt.Sprintf("delay(%v)", o.Dur)
	case OpAcquire, OpRelease, OpSignalEvent, OpCondSignal, OpCondBroadcast, OpStateRead, OpIO:
		return fmt.Sprintf("%s(%d)", o.Kind, o.Obj)
	case OpWaitEvent, OpRecv:
		if o.Hint != NoHint {
			return fmt.Sprintf("%s(%d, hint=%d)", o.Kind, o.Obj, o.Hint)
		}
		return fmt.Sprintf("%s(%d, hint=-1)", o.Kind, o.Obj)
	case OpSend:
		return fmt.Sprintf("send(%d, %d bytes)", o.Obj, o.Size)
	case OpStateWrite:
		return fmt.Sprintf("state-write(%d, val=%d)", o.Obj, o.Val)
	case OpCondWait:
		return fmt.Sprintf("cond-wait(%d, mutex=%d)", o.Obj, o.Hint)
	case OpBusSend:
		return fmt.Sprintf("bus-send(%d, %d bytes)", o.Obj, o.Size)
	case OpVSend:
		return fmt.Sprintf("vsend(%d, %d×%d bytes)", o.Obj, o.Batch(), o.Size)
	case OpVRecv:
		if o.Hint != NoHint {
			return fmt.Sprintf("vrecv(%d, hint=%d)", o.Obj, o.Hint)
		}
		return fmt.Sprintf("vrecv(%d, hint=-1)", o.Obj)
	}
	return o.Kind.String()
}

// Program is a task body: the op sequence executed once per period.
type Program []Op

// Clone returns a deep copy of the program (ops are values, so a slice
// copy suffices). A nil program stays nil.
func (p Program) Clone() Program {
	if p == nil {
		return nil
	}
	out := make(Program, len(p))
	copy(out, p)
	return out
}

// ComputeTime returns the total OpCompute time in the program.
func (p Program) ComputeTime() vtime.Duration {
	var d vtime.Duration
	for _, op := range p {
		if op.Kind == OpCompute {
			d += op.Dur
		}
	}
	return d
}

// String renders the program one op per line.
func (p Program) String() string {
	s := ""
	for i, op := range p {
		if i > 0 {
			s += "; "
		}
		s += op.String()
	}
	return s
}

// Convenience constructors for building programs.

// Compute returns an op that burns d of CPU time.
func Compute(d vtime.Duration) Op { return Op{Kind: OpCompute, Dur: d} }

// Acquire returns an op that locks semaphore id.
func Acquire(id int) Op { return Op{Kind: OpAcquire, Obj: id, Hint: NoHint} }

// Release returns an op that unlocks semaphore id.
func Release(id int) Op { return Op{Kind: OpRelease, Obj: id, Hint: NoHint} }

// WaitEvent returns an op that blocks on event id.
func WaitEvent(id int) Op { return Op{Kind: OpWaitEvent, Obj: id, Hint: NoHint} }

// SignalEvent returns an op that signals event id.
func SignalEvent(id int) Op { return Op{Kind: OpSignalEvent, Obj: id, Hint: NoHint} }

// Send returns an op that sends size bytes holding val to mailbox id.
func Send(id int, val int64, size int) Op {
	return Op{Kind: OpSend, Obj: id, Val: val, Size: size, Hint: NoHint}
}

// Recv returns an op that receives from mailbox id.
func Recv(id int) Op { return Op{Kind: OpRecv, Obj: id, Hint: NoHint} }

// StateWrite returns an op that publishes val (size bytes) to state
// message id.
func StateWrite(id int, val int64, size int) Op {
	return Op{Kind: OpStateWrite, Obj: id, Val: val, Size: size, Hint: NoHint}
}

// StateRead returns an op that reads state message id.
func StateRead(id int) Op { return Op{Kind: OpStateRead, Obj: id, Hint: NoHint} }

// CondWait returns an op that waits on condvar id with mutex held.
func CondWait(id, mutex int) Op { return Op{Kind: OpCondWait, Obj: id, Hint: mutex} }

// CondSignal returns an op that signals condvar id.
func CondSignal(id int) Op { return Op{Kind: OpCondSignal, Obj: id, Hint: NoHint} }

// CondBroadcast returns an op that broadcasts condvar id.
func CondBroadcast(id int) Op { return Op{Kind: OpCondBroadcast, Obj: id, Hint: NoHint} }

// IO returns an op that invokes device driver id.
func IO(id int) Op { return Op{Kind: OpIO, Obj: id, Hint: NoHint} }

// BusSend returns an op that queues size bytes with value val on
// fieldbus interface id.
func BusSend(id int, val int64, size int) Op {
	return Op{Kind: OpBusSend, Obj: id, Val: val, Size: size, Hint: NoHint}
}

// Delay returns an op that blocks the task for d of virtual time.
func Delay(d vtime.Duration) Op { return Op{Kind: OpDelay, Dur: d, Hint: NoHint} }

// VSend returns an op that batch-enqueues n messages of size bytes
// holding val onto virtual link id.
func VSend(id int, val int64, size, n int) Op {
	return Op{Kind: OpVSend, Obj: id, Val: val, Size: size, N: n, Hint: NoHint}
}

// VRecv returns an op that dequeues one message from virtual link id.
func VRecv(id int) Op { return Op{Kind: OpVRecv, Obj: id, Hint: NoHint} }
