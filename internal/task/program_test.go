package task

import (
	"fmt"
	"strings"
	"testing"

	"emeralds/internal/vtime"
)

func TestOpConstructors(t *testing.T) {
	cases := []struct {
		op   Op
		kind OpKind
		obj  int
	}{
		{Compute(vtime.Millisecond), OpCompute, 0},
		{Acquire(3), OpAcquire, 3},
		{Release(3), OpRelease, 3},
		{WaitEvent(5), OpWaitEvent, 5},
		{SignalEvent(5), OpSignalEvent, 5},
		{Send(2, 9, 16), OpSend, 2},
		{Recv(2), OpRecv, 2},
		{StateWrite(1, 7, 8), OpStateWrite, 1},
		{StateRead(1), OpStateRead, 1},
		{CondSignal(4), OpCondSignal, 4},
		{CondBroadcast(4), OpCondBroadcast, 4},
		{IO(6), OpIO, 6},
		{BusSend(0, 1, 4), OpBusSend, 0},
	}
	for _, c := range cases {
		if c.op.Kind != c.kind {
			t.Errorf("kind = %v, want %v", c.op.Kind, c.kind)
		}
		if c.op.Obj != c.obj {
			t.Errorf("%v: obj = %d, want %d", c.kind, c.op.Obj, c.obj)
		}
	}
}

func TestBlockingOpsDefaultToNoHint(t *testing.T) {
	for _, op := range []Op{WaitEvent(1), Recv(1), Send(1, 0, 8), Acquire(1)} {
		if op.Hint != NoHint {
			t.Errorf("%v: hint = %d, want NoHint", op.Kind, op.Hint)
		}
	}
}

func TestCondWaitCarriesMutex(t *testing.T) {
	op := CondWait(2, 5)
	if op.Obj != 2 || op.Hint != 5 {
		t.Errorf("CondWait = obj %d hint %d", op.Obj, op.Hint)
	}
	if !op.Blocking() {
		t.Error("CondWait must be blocking")
	}
}

func TestBlockingClassification(t *testing.T) {
	blocking := []Op{WaitEvent(0), Recv(0), CondWait(0, 1), Acquire(0), Send(0, 0, 8)}
	for _, op := range blocking {
		if !op.Blocking() {
			t.Errorf("%v should be blocking", op.Kind)
		}
	}
	nonBlocking := []Op{Compute(1), Release(0), SignalEvent(0), StateWrite(0, 0, 8), StateRead(0), IO(0)}
	for _, op := range nonBlocking {
		if op.Blocking() {
			t.Errorf("%v should not be blocking", op.Kind)
		}
	}
}

func TestProgramClone(t *testing.T) {
	p := Program{Compute(1), Acquire(0), Release(0)}
	c := p.Clone()
	c[1].Hint = 42
	if p[1].Hint == 42 {
		t.Error("Clone shares backing storage")
	}
	if len(c) != len(p) {
		t.Error("Clone length mismatch")
	}
}

func TestProgramComputeTime(t *testing.T) {
	p := Program{
		Compute(2 * vtime.Millisecond),
		Acquire(0),
		Compute(3 * vtime.Millisecond),
		Release(0),
	}
	if got := p.ComputeTime(); got != 5*vtime.Millisecond {
		t.Errorf("ComputeTime = %v", got)
	}
	if (Program{}).ComputeTime() != 0 {
		t.Error("empty program compute time")
	}
}

func TestOpStrings(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Compute(vtime.Millisecond), "compute(1.000ms)"},
		{Acquire(2), "acquire(2)"},
		{WaitEvent(1), "wait(1, hint=-1)"},
		{CondWait(3, 7), "cond-wait(3, mutex=7)"},
		{Send(1, 0, 16), "send(1, 16 bytes)"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	hinted := WaitEvent(1)
	hinted.Hint = 4
	if !strings.Contains(hinted.String(), "hint=4") {
		t.Errorf("hinted wait = %q", hinted.String())
	}
}

func TestProgramString(t *testing.T) {
	p := Program{Acquire(0), Release(0)}
	if got := p.String(); got != "acquire(0); release(0)" {
		t.Errorf("Program.String() = %q", got)
	}
}

func TestOpKindStringCoversAll(t *testing.T) {
	for k := OpCompute; k <= OpVRecv; k++ {
		blank := k == 12 || k == 13
		if strings.HasPrefix(k.String(), "op(") != blank || k.Valid() == blank {
			t.Errorf("kind %d prints %q, Valid %v", k, k, k.Valid())
		}
	}
	if !strings.HasPrefix(OpKind(200).String(), "op(") || OpKind(200).Valid() {
		t.Error("unknown kind should fall back to op(n)")
	}
}

// TestOpKindNumbersStayFixed: repro files store op kinds by number, so
// a kind keeps its number for good; the retired memory load and store
// kinds leave 12 and 13 blank.
func TestOpKindNumbersStayFixed(t *testing.T) {
	for k, want := range map[OpKind]int{OpCompute: 0, OpCondBroadcast: 11,
		OpIO: 14, OpBusSend: 15, OpDelay: 16, OpVSend: 17, OpVRecv: 18} {
		if int(k) != want {
			t.Errorf("%s is kind %d, want %d", k, k, want)
		}
	}
	for _, k := range []OpKind{12, 13} {
		if got, want := k.String(), fmt.Sprintf("op(%d)", k); got != want || k.Valid() {
			t.Errorf("kind %d prints %q (Valid %v), want %q", k, got, k.Valid(), want)
		}
	}
}
