package trace

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emeralds/internal/vtime"
)

var update = flag.Bool("update", false, "rewrite golden files")

func ms(f float64) vtime.Time { return vtime.Time(vtime.Millis(f)) }

func TestGanttBasicTimeline(t *testing.T) {
	l := New(64)
	// a runs [0,2), preempted by b [2,3), resumes [3,4), completes.
	l.Add(ms(0), Release, "a", "")
	l.Add(ms(0), Dispatch, "a", "")
	l.Add(ms(2), Release, "b", "")
	l.Add(ms(2), Preempt, "a", "")
	l.Add(ms(2), Dispatch, "b", "")
	l.Add(ms(3), Complete, "b", "")
	l.Add(ms(3), Dispatch, "a", "")
	l.Add(ms(4), Complete, "a", "")
	out := l.Gantt(GanttConfig{From: 0, To: ms(4), Width: 40})

	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // a, b, axis
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	rowA, rowB := lines[0], lines[1]
	if !strings.HasPrefix(rowA, "a") || !strings.HasPrefix(rowB, "b") {
		t.Fatalf("row order:\n%s", out)
	}
	// a: first half running, then a ready gap, then running again.
	if !strings.Contains(rowA, "█") || !strings.Contains(rowA, "░") {
		t.Errorf("row a missing run/ready glyphs: %q", rowA)
	}
	// b: blocked (·) before 2 ms, running after.
	cellsB := []rune(strings.TrimSpace(strings.TrimPrefix(rowB, "b")))
	if cellsB[0] != '·' {
		t.Errorf("b should start blocked: %q", rowB)
	}
	if !strings.ContainsRune(rowB, '█') {
		t.Errorf("b never ran: %q", rowB)
	}
	// Axis carries both window ends.
	if !strings.Contains(lines[2], "0s") || !strings.Contains(lines[2], "4.000ms") {
		t.Errorf("axis = %q", lines[2])
	}
}

func TestGanttPreemptedShowsReady(t *testing.T) {
	l := New(64)
	l.Add(ms(0), Dispatch, "lo", "")
	l.Add(ms(1), Preempt, "lo", "")
	l.Add(ms(1), Dispatch, "hi", "")
	l.Add(ms(3), Complete, "hi", "")
	l.Add(ms(3), Dispatch, "lo", "")
	l.Add(ms(4), Complete, "lo", "")
	out := l.Gantt(GanttConfig{From: 0, To: ms(4), Width: 40})
	loRow := strings.Split(out, "\n")[1] // sorted: hi, lo
	if !strings.HasPrefix(loRow, "lo") {
		t.Fatalf("unexpected row order:\n%s", out)
	}
	// The middle of lo's row must be ░ (ready, not running).
	mid := []rune(loRow)[4+20] // roughly the 2 ms column
	if mid != '░' {
		t.Errorf("lo at 2 ms = %q, want ready:\n%s", mid, out)
	}
}

func TestGanttEmptyAndDegenerate(t *testing.T) {
	l := New(4)
	if got := l.Gantt(GanttConfig{}); !strings.Contains(got, "no events") {
		t.Errorf("empty = %q", got)
	}
	l.Add(ms(1), Dispatch, "x", "")
	if got := l.Gantt(GanttConfig{From: ms(2), To: ms(2)}); !strings.Contains(got, "empty window") {
		t.Errorf("degenerate = %q", got)
	}
}

// TestGanttGolden locks the ASCII rendering byte-for-byte on the same
// synthetic contended trace the Perfetto export test uses: a blocks on
// a semaphore held across b's quantum, is granted, preempts b, and
// misses its deadline.
func TestGanttGolden(t *testing.T) {
	mms := func(n int) vtime.Time { return vtime.Time(n) * vtime.Time(vtime.Millisecond) }
	l := New(64)
	for _, e := range []Event{
		{At: mms(0), Kind: Release, Task: "a"},
		{At: mms(0), Kind: Dispatch, Task: "a"},
		{At: mms(1), Kind: SemBlockWait, Task: "a", Detail: "m"},
		{At: mms(1), Kind: Dispatch, Task: "b"},
		{At: mms(2), Kind: SemGrant, Task: "a", Detail: "m"},
		{At: mms(2), Kind: Preempt, Task: "b"},
		{At: mms(2), Kind: Dispatch, Task: "a"},
		{At: mms(3), Kind: Miss, Task: "a"},
		{At: mms(3), Kind: Idle, Task: "-"},
	} {
		l.Add(e.At, e.Kind, e.Task, e.Detail)
	}
	got := l.Gantt(GanttConfig{From: 0, To: mms(3), Width: 48})
	golden := filepath.Join("testdata", "gantt_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("gantt rendering differs from golden (rerun with -update after intentional changes)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestGanttDefaults(t *testing.T) {
	l := New(16)
	l.Add(ms(0), Dispatch, "x", "")
	l.Add(ms(10), Complete, "x", "")
	out := l.Gantt(GanttConfig{}) // To defaults to the last event
	if !strings.Contains(out, "10.000ms") {
		t.Errorf("default window wrong:\n%s", out)
	}
}

// TestGanttWrappedRingSaysSo: once the ring has dropped the events at
// the window's start, the chart names what was lost instead of drawing
// empty rows; a window that starts at or after the oldest retained
// event still renders.
func TestGanttWrappedRingSaysSo(t *testing.T) {
	l := New(4)
	for i := 0; i < 10; i++ {
		l.Add(ms(float64(i)), Dispatch, "a", "")
		l.Add(ms(float64(i)+0.5), Complete, "a", "")
	}
	out := l.Gantt(GanttConfig{To: ms(5), Width: 20})
	if !strings.Contains(out, "dropped its 16 oldest events") || strings.Contains(out, "·") {
		t.Errorf("overwritten window rendered as:\n%s", out)
	}
	if out := l.Gantt(GanttConfig{From: ms(8), To: ms(10), Width: 20}); !strings.Contains(out, "█") {
		t.Errorf("window inside the retained events rendered as:\n%s", out)
	}
}
