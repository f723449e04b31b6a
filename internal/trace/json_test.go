package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"emeralds/internal/vtime"
)

// TestDroppedCounter: filling a small ring past capacity reports
// exactly the overwritten events — truncated traces cannot masquerade
// as complete ones.
func TestDroppedCounter(t *testing.T) {
	l := New(4)
	for i := 0; i < 3; i++ {
		l.Add(vtime.Time(i), Dispatch, "x", "")
	}
	if l.Dropped() != 0 {
		t.Fatalf("dropped = %d before the ring filled", l.Dropped())
	}
	for i := 3; i < 10; i++ {
		l.Add(vtime.Time(i), Dispatch, "x", "")
	}
	if l.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6 (10 added, 4 retained)", l.Dropped())
	}
	if l.Total() != 10 {
		t.Errorf("total = %d, want 10", l.Total())
	}
	var nilLog *Log
	if nilLog.Dropped() != 0 {
		t.Error("nil log should report 0 dropped")
	}
}

// TestRawJSONRoundTrip: events survive the raw JSON encoding exactly,
// including the Dur payload and nanosecond timestamps, and ParseJSON
// reads a bare raw log (the form of the syncheck fuzz corpus) as well
// as the one a Perfetto export embeds.
func TestRawJSONRoundTrip(t *testing.T) {
	l := New(16)
	l.Add(0, TaskInfo, "a", "prio=0 period=4000000 deadline=4000000")
	l.Add(1, Release, "a", "")
	l.Add(1, Dispatch, "a", "")
	l.AddDur(1234567, Preempt, "a", "for b", 321)
	l.AddDur(2000000, Complete, "a", "", 97)

	bare, err := json.Marshal(refRaw(l))
	if err != nil {
		t.Fatal(err)
	}
	events, dropped, err := ParseJSON(bare)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Errorf("dropped = %d", dropped)
	}
	want := l.Events()
	if len(events) != len(want) {
		t.Fatalf("round trip kept %d of %d events", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, events[i], want[i])
		}
	}
}

// TestParseJSONFromPerfettoExport: the raw log embedded in a Perfetto
// export round-trips through ParseJSON — one -trace-out file serves
// both ui.perfetto.dev and emreport.
func TestParseJSONFromPerfettoExport(t *testing.T) {
	l := New(16)
	l.Add(0, Dispatch, "a", "")
	l.AddDur(500, SemBlockWait, "a", "m holder=b", 17)
	l.Add(500, Dispatch, "b", "")

	var buf bytes.Buffer
	if err := l.ExportPerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	events, dropped, err := ParseJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Errorf("dropped = %d", dropped)
	}
	want := l.Events()
	if len(events) != len(want) {
		t.Fatalf("embedded log kept %d of %d events", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, events[i], want[i])
		}
	}
}

// TestParseJSONRejectsGarbage: unknown schemas, kinds, and plain
// Perfetto files without an embedded raw log all fail loudly.
func TestParseJSONRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not-json":     "{",
		"no-schema":    `{"events": []}`,
		"bad-schema":   `{"schema": "emeralds.trace/v999", "events": []}`,
		"bad-kind":     `{"schema": "emeralds.trace/v1", "events": [{"at":0,"kind":"warp","task":"a"}]}`,
		"perfetto-raw": `{"traceEvents": [{"ph":"M"}]}`,
		"negative-cpu": `{"schema": "emeralds.trace/v1", "events": [{"at":0,"kind":"dispatch","task":"a"},{"at":1,"kind":"dispatch","task":"a","cpu":-1}]}`,
		"negative-dur": `{"schema": "emeralds.trace/v1", "events": [{"at":0,"kind":"dispatch","task":"a"},{"at":1,"kind":"complete","task":"a","dur":-700}]}`,
	}
	for name, doc := range cases {
		_, _, err := ParseJSON([]byte(doc))
		if err == nil {
			t.Errorf("%s accepted", name)
		} else if strings.HasPrefix(name, "negative-") && !strings.Contains(err.Error(), "event 1 ") {
			t.Errorf("%s: error %q does not name the event index", name, err)
		}
	}
}

// TestDroppedTravelsThroughJSON: the dropped count of a wrapped ring
// survives export/parse, so downstream consumers can refuse truncated
// traces.
func TestDroppedTravelsThroughJSON(t *testing.T) {
	l := New(2)
	for i := 0; i < 5; i++ {
		l.Add(vtime.Time(i), Dispatch, "x", "")
	}
	var buf bytes.Buffer
	if err := l.ExportPerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	_, dropped, err := ParseJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 3 {
		t.Errorf("dropped = %d, want 3", dropped)
	}
}

// refRaw builds the RawLog of l's retained events with encoding/json's
// types: the reference the streamed raw block is compared against.
func refRaw(l *Log) RawLog { return rawOf(l.Events(), l.Total(), l.Dropped()) }

// rawOf builds the RawLog of the retained events evs of a log that
// recorded total events and dropped the oldest dropped of them.
func rawOf(evs []Event, total, dropped uint64) RawLog {
	out := RawLog{Schema: RawSchema, Total: total, Dropped: dropped, Events: make([]RawEvent, len(evs))}
	for i, e := range evs {
		out.Events[i] = RawEvent{
			At: int64(e.At), Kind: e.Kind.String(), Task: e.Task,
			Detail: e.Detail, Dur: int64(e.Dur), CPU: e.CPU,
		}
	}
	return out
}
