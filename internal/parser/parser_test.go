package parser

import (
	"testing"

	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

func TestInsertHintsBasic(t *testing.T) {
	p := task.Program{
		task.Compute(vtime.Millisecond),
		task.WaitEvent(0), // immediately precedes acquire → hint 7
		task.Acquire(7),
		task.Release(7),
	}
	out := InsertHints(p)
	if out[1].Hint != 7 {
		t.Errorf("hint = %d, want 7", out[1].Hint)
	}
	// Input untouched.
	if p[1].Hint != task.NoHint {
		t.Error("InsertHints mutated its input")
	}
}

func TestInsertHintsResetsStaleHints(t *testing.T) {
	w := task.WaitEvent(0)
	w.Hint = 99                           // a stale or wrong hand-written hint
	p := task.Program{w, task.Compute(1)} // not followed by acquire
	out := InsertHints(p)
	if out[0].Hint != task.NoHint {
		t.Errorf("stale hint survived: %d", out[0].Hint)
	}
}

func TestInsertHintsPerCallSite(t *testing.T) {
	p := task.Program{
		task.Recv(1),
		task.Acquire(3),
		task.Release(3),
		task.Recv(1), // not before an acquire
		task.Compute(1),
		task.WaitEvent(2),
		task.Acquire(4),
		task.Release(4),
	}
	out := InsertHints(p)
	if out[0].Hint != 3 {
		t.Errorf("recv#1 hint = %d", out[0].Hint)
	}
	if out[3].Hint != task.NoHint {
		t.Errorf("recv#2 hint = %d, want -1", out[3].Hint)
	}
	if out[5].Hint != 4 {
		t.Errorf("wait hint = %d", out[5].Hint)
	}
}

func TestBlockingSendGetsHint(t *testing.T) {
	p := task.Program{task.Send(0, 1, 8), task.Acquire(2), task.Release(2)}
	if out := InsertHints(p); out[0].Hint != 2 {
		t.Errorf("send hint = %d", out[0].Hint)
	}
}

func TestCondWaitHintPreserved(t *testing.T) {
	// CondWait's Hint names its mutex; the parser must not clobber it.
	p := task.Program{task.CondWait(1, 5), task.Acquire(9), task.Release(9)}
	if out := InsertHints(p); out[0].Hint != 5 {
		t.Errorf("cond-wait mutex hint = %d", out[0].Hint)
	}
}

func TestEmptyProgram(t *testing.T) {
	if out := InsertHints(nil); len(out) != 0 {
		t.Error("nil program should stay empty")
	}
}
