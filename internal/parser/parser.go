// Package parser implements the code parser of §6.2.1: "all blocking
// calls take an extra parameter which is the identifier of the
// semaphore to be locked by the upcoming acquire_sem call. This
// parameter is set to −1 if the next blocking call is not acquire_sem.
// Semaphore identifiers are statically defined (at compile time) ... so
// it is fairly straightforward to write a parser which examines the
// application code and inserts the correct semaphore identifier into
// the argument list of blocking calls just preceding acquire_sem calls.
// Hence, the application programmer does not have to make any manual
// modifications to the code."
//
// Here the "application code" is the task.Program IR, and the inserted
// parameter is Op.Hint.
package parser

import "emeralds/internal/task"

// hintCarrier reports whether the op is a blocking call that takes the
// §6.2.1 hint parameter. Acquire itself does not (it is the target);
// cond-wait's Hint field already names its mutex.
func hintCarrier(op task.Op) bool {
	switch op.Kind {
	case task.OpWaitEvent, task.OpRecv, task.OpSend, task.OpDelay:
		return true
	}
	return false
}

// InsertHints returns a copy of the program with the semaphore-hint
// parameter filled in on every blocking call immediately preceding an
// acquire_sem, and reset to NoHint on every other blocking call. The
// input program is not modified.
func InsertHints(p task.Program) task.Program {
	out := p.Clone()
	for i := range out {
		if !hintCarrier(out[i]) {
			continue
		}
		if i+1 < len(out) && out[i+1].Kind == task.OpAcquire {
			out[i].Hint = out[i+1].Obj
		} else {
			out[i].Hint = task.NoHint
		}
	}
	return out
}
