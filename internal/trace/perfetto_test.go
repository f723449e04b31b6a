package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"emeralds/internal/vtime"
)

func perfettoDoc(t *testing.T, events []Event) (raw []byte, evs []map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if err := ExportPerfetto(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	return buf.Bytes(), doc.TraceEvents
}

func TestPerfettoExport(t *testing.T) {
	ms := func(n int) vtime.Time { return vtime.Time(n) * vtime.Time(vtime.Millisecond) }
	events := []Event{
		{At: ms(0), Kind: Release, Task: "a"},
		{At: ms(0), Kind: Dispatch, Task: "a"},
		{At: ms(1), Kind: SemBlockWait, Task: "a", Detail: "m"},
		{At: ms(1), Kind: Dispatch, Task: "b"},
		{At: ms(2), Kind: SemGrant, Task: "a", Detail: "m"},
		{At: ms(2), Kind: Preempt, Task: "b"},
		{At: ms(2), Kind: Dispatch, Task: "a"},
		{At: ms(3), Kind: Miss, Task: "a"},
		{At: ms(3), Kind: Idle, Task: "-"},
	}
	_, evs := perfettoDoc(t, events)

	byPh := map[string][]map[string]any{}
	for _, e := range evs {
		byPh[e["ph"].(string)] = append(byPh[e["ph"].(string)], e)
	}

	// Thread-name metadata for both tasks (plus the process name).
	names := map[string]bool{}
	for _, m := range byPh["M"] {
		names[m["args"].(map[string]any)["name"].(string)] = true
	}
	if !names["a"] || !names["b"] || !names["emeralds"] {
		t.Errorf("metadata names = %v", names)
	}

	// Three run slices: a [0,1), b [1,2), a [2,3).
	if len(byPh["X"]) != 3 {
		t.Fatalf("got %d X slices, want 3", len(byPh["X"]))
	}
	for i, want := range []struct{ ts, dur float64 }{{0, 1000}, {1000, 1000}, {2000, 1000}} {
		x := byPh["X"][i]
		if x["ts"].(float64) != want.ts || x["dur"].(float64) != want.dur {
			t.Errorf("slice %d: ts=%v dur=%v, want %v/%v", i, x["ts"], x["dur"], want.ts, want.dur)
		}
	}

	// The deadline miss is an instant on a's track.
	var sawMiss bool
	for _, in := range byPh["i"] {
		if in["name"] == "MISS" {
			sawMiss = true
		}
	}
	if !sawMiss {
		t.Error("no MISS instant event")
	}

	// The grant produces a matching s/f flow pair: started on b's track
	// (the releaser was running) and finished at a's next dispatch.
	if len(byPh["s"]) != 1 || len(byPh["f"]) != 1 {
		t.Fatalf("flows: %d starts, %d finishes, want 1/1", len(byPh["s"]), len(byPh["f"]))
	}
	s, f := byPh["s"][0], byPh["f"][0]
	if s["id"] != f["id"] {
		t.Errorf("flow ids differ: %v vs %v", s["id"], f["id"])
	}
	if s["tid"] == f["tid"] {
		t.Error("flow start and finish on the same track; want releaser → waiter")
	}
	if f["bp"] != "e" {
		t.Errorf(`finish bp = %v, want "e"`, f["bp"])
	}
	if f["ts"].(float64) != 2000 {
		t.Errorf("flow lands at ts %v, want 2000 (a's redispatch)", f["ts"])
	}
}

// TestPerfettoDeterministic: same events, byte-identical JSON.
func TestPerfettoDeterministic(t *testing.T) {
	events := []Event{
		{At: 0, Kind: Dispatch, Task: "a"},
		{At: 100, Kind: StateWrite, Task: "a", Detail: "s"},
		{At: 200, Kind: Complete, Task: "a"},
	}
	a, _ := perfettoDoc(t, events)
	b, _ := perfettoDoc(t, events)
	if !bytes.Equal(a, b) {
		t.Error("export is not byte-deterministic")
	}
}

// TestPerfettoOpenSliceClosed: a trace ending mid-quantum still closes
// the running slice (at the last event), so the JSON never contains a
// dangling "B" or an X with negative duration.
func TestPerfettoOpenSliceClosed(t *testing.T) {
	events := []Event{
		{At: 0, Kind: Dispatch, Task: "a"},
		{At: 500, Kind: Release, Task: "b"},
	}
	_, evs := perfettoDoc(t, events)
	var slices int
	for _, e := range evs {
		if e["ph"] == "X" {
			slices++
			if e["dur"].(float64) < 0 {
				t.Errorf("negative duration: %v", e["dur"])
			}
		}
	}
	if slices != 1 {
		t.Errorf("got %d slices, want 1", slices)
	}
}

// TestPerfettoMulticore: events naming CPUs get one process per CPU,
// run slices land in their CPU's process, and a Migrate/MigrateDone
// pair produces a flow arrow across processes.
func TestPerfettoMulticore(t *testing.T) {
	ms := func(n int) vtime.Time { return vtime.Time(n) * vtime.Time(vtime.Millisecond) }
	events := []Event{
		{At: ms(0), Kind: Dispatch, Task: "a", CPU: 0},
		{At: ms(0), Kind: Dispatch, Task: "b", CPU: 1},
		{At: ms(1), Kind: Migrate, Task: "a", Detail: "to=cpu1", CPU: 0},
		{At: ms(1), Kind: Idle, Task: "-", CPU: 0},
		{At: ms(2), Kind: Complete, Task: "b", CPU: 1},
		{At: ms(2), Kind: MigrateDone, Task: "a", Detail: "from=cpu0", CPU: 1},
		{At: ms(2), Kind: Dispatch, Task: "a", CPU: 1},
		{At: ms(3), Kind: Complete, Task: "a", CPU: 1},
	}
	_, evs := perfettoDoc(t, events)

	procs := map[float64]string{}
	var flowsS, flowsF []map[string]any
	var slices []map[string]any
	for _, e := range evs {
		switch e["ph"] {
		case "M":
			if e["name"] == "process_name" {
				procs[e["pid"].(float64)] = e["args"].(map[string]any)["name"].(string)
			}
		case "s":
			if e["name"] == "migrate" {
				flowsS = append(flowsS, e)
			}
		case "f":
			if e["name"] == "migrate" {
				flowsF = append(flowsF, e)
			}
		case "X":
			slices = append(slices, e)
		}
	}
	if procs[1] != "emeralds cpu0" || procs[2] != "emeralds cpu1" {
		t.Errorf("process names = %v, want per-CPU processes", procs)
	}
	if len(flowsS) != 1 || len(flowsF) != 1 {
		t.Fatalf("migrate flows: %d starts, %d finishes, want 1/1", len(flowsS), len(flowsF))
	}
	if flowsS[0]["id"] != flowsF[0]["id"] {
		t.Error("migrate flow ids do not match")
	}
	if flowsS[0]["pid"].(float64) != 1 || flowsF[0]["pid"].(float64) != 2 {
		t.Errorf("flow runs pid %v → %v, want 1 → 2", flowsS[0]["pid"], flowsF[0]["pid"])
	}
	// a's pre-migration slice is in cpu0's process, post-migration in
	// cpu1's; b's slice in cpu1's.
	var sawA0, sawA1 bool
	for _, x := range slices {
		if x["dur"].(float64) < 0 {
			t.Errorf("negative slice duration: %v", x["dur"])
		}
		switch x["pid"].(float64) {
		case 1:
			sawA0 = true
		case 2:
			sawA1 = true
		}
	}
	if !sawA0 || !sawA1 {
		t.Errorf("slices per process: cpu0=%v cpu1=%v, want both", sawA0, sawA1)
	}
}

// TestPerfettoSingleCPUUnchanged: a trace with every event on CPU 0
// keeps the classic single-process layout.
func TestPerfettoSingleCPUUnchanged(t *testing.T) {
	events := []Event{
		{At: 0, Kind: Dispatch, Task: "a"},
		{At: 100, Kind: Complete, Task: "a"},
	}
	_, evs := perfettoDoc(t, events)
	for _, e := range evs {
		if e["ph"] == "M" && e["name"] == "process_name" {
			if got := e["args"].(map[string]any)["name"]; got != "emeralds" {
				t.Errorf("process name = %v, want classic \"emeralds\"", got)
			}
		}
		if pid, ok := e["pid"].(float64); ok && pid != 1 {
			t.Errorf("event in pid %v, want single process 1", pid)
		}
	}
}

// goldenLog is a fixed two-CPU log that reaches every object the
// Perfetto export writes: migrate/migrate-done and sem-grant flows,
// non-zero Dur payloads, timestamps of at least 2^40 ns (whose
// microsecond floats carry many significant digits), and task and
// detail strings that need JSON escaping: HTML-sensitive <>&, quotes
// and backslashes, control bytes, U+2028, non-ASCII text and an invalid
// UTF-8 byte. The ring holds two events fewer than are added, so the
// raw block records a wrapped ring.
func goldenLog() *Log {
	const t0 = vtime.Time(1 << 40)
	at := func(ns int64) vtime.Time { return t0 + vtime.Time(ns) }
	var (
		html = `h<t>&"q"\`
		ctl  = "ctl\x01\n\t\x1f"
		uni  = "uni\u2028é日本"
		bad  = "bad\xff"
	)
	events := []Event{
		{At: 0, Kind: TaskInfo, Task: "dropped", Detail: "prio=9"},
		{At: 0, Kind: Release, Task: "dropped"},
		{At: at(0), Kind: TaskInfo, Task: html, Detail: "prio=0 <period>=4000000"},
		{At: at(0), Kind: TaskInfo, Task: uni, Detail: "prio=1 \u2029", CPU: 1},
		{At: at(0), Kind: Release, Task: html},
		{At: at(0), Kind: Dispatch, Task: html},
		{At: at(0), Kind: Dispatch, Task: uni, CPU: 1},
		{At: at(333), Kind: Release, Task: ctl, CPU: 1},
		{At: at(1000), Kind: SemAcquire, Task: html, Detail: "m<&>"},
		{At: at(1500), Kind: SemBlockWait, Task: uni, Detail: `m<&> holder="h"`, Dur: 17, CPU: 1},
		{At: at(1500), Kind: Dispatch, Task: ctl, CPU: 1},
		{At: at(2333), Kind: SemRelease, Task: html, Detail: "m<&>"},
		{At: at(2333), Kind: SemGrant, Task: uni, Detail: "m<&>"},
		{At: at(2333), Kind: Preempt, Task: html, Detail: "for " + uni, Dur: 250},
		{At: at(2333), Kind: Dispatch, Task: uni},
		{At: at(3000), Kind: Migrate, Task: ctl, Detail: "to=cpu0", Dur: 40, CPU: 1},
		{At: at(3000), Kind: Idle, Task: "-", CPU: 1},
		{At: at(3500), Kind: Complete, Task: uni, Dur: 9},
		{At: at(3500), Kind: MigrateDone, Task: ctl, Detail: "from=cpu1"},
		{At: at(3500), Kind: Dispatch, Task: ctl},
		{At: at(4000), Kind: Release, Task: bad, Detail: "\xfe\x80", CPU: 1},
		{At: at(4000), Kind: Dispatch, Task: bad, CPU: 1},
		{At: at(4321), Kind: Miss, Task: ctl, Detail: "late by 1µs", Dur: 1},
		{At: at(4321), Kind: Fault, Task: bad, Detail: "addr=\\x00 \x7f", CPU: 1},
		{At: at(4999), Kind: StateWrite, Task: ctl, Detail: "s\u2028v"},
		{At: at(5000), Kind: Interrupt, Task: "isr", Detail: "irq=3", CPU: 1},
		{At: at(5000), Kind: Idle, Task: "-"},
	}
	l := New(len(events) - 2)
	for _, e := range events {
		l.AddDurCPU(e.At, e.Kind, e.Task, e.Detail, e.Dur, e.CPU)
	}
	return l
}

// TestPerfettoGolden locks Log.ExportPerfetto byte for byte on the
// multicore, escape-heavy goldenLog, including the embedded raw block.
func TestPerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenLog().ExportPerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "perfetto_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Perfetto export differs from %s (rerun with -update after intentional changes)\ngot:\n%s", golden, buf.Bytes())
	}
}

type tidKey struct {
	pid  int
	task string
}

// mapExporter is the reference Perfetto encoder: one map[string]any per
// trace-event object, ordered and escaped by encoding/json. The
// streaming writer must match its output byte for byte.
type mapExporter struct {
	events []map[string]any
	multi  bool
	tids   map[tidKey]int
	ntids  int
	cur    []string
	start  []vtime.Time
	nextID int
	flows  map[string][]int
	hops   map[string][]int
}

func (p *mapExporter) pid(cpu int) int {
	if !p.multi {
		return 1
	}
	return cpu + 1
}

func (p *mapExporter) tid(pid int, task string) int {
	key := tidKey{pid, task}
	if id, ok := p.tids[key]; ok {
		return id
	}
	p.ntids++
	id := p.ntids
	p.tids[key] = id
	p.events = append(p.events, map[string]any{
		"ph": "M", "name": "thread_name", "pid": pid, "tid": id,
		"args": map[string]any{"name": task},
	})
	return id
}

func (p *mapExporter) closeSlice(cpu int, at vtime.Time) {
	if p.cur[cpu] == "" {
		return
	}
	p.events = append(p.events, map[string]any{
		"ph": "X", "name": "run", "cat": "task",
		"pid": p.pid(cpu), "tid": p.tid(p.pid(cpu), p.cur[cpu]),
		"ts": us(p.start[cpu]), "dur": us(at) - us(p.start[cpu]),
	})
	p.cur[cpu] = ""
}

func (p *mapExporter) instant(e Event) {
	ev := map[string]any{
		"ph": "i", "s": "t", "name": e.Kind.String(), "cat": "kernel",
		"pid": p.pid(e.CPU), "tid": p.tid(p.pid(e.CPU), e.Task), "ts": us(e.At),
	}
	args := map[string]any{}
	if e.Detail != "" {
		args["detail"] = e.Detail
	}
	if e.Dur != 0 {
		args["overhead_us"] = float64(e.Dur) / 1e3
	}
	if len(args) > 0 {
		ev["args"] = args
	}
	p.events = append(p.events, ev)
}

func (p *mapExporter) add(e Event) {
	c := e.CPU
	switch e.Kind {
	case Dispatch:
		p.closeSlice(c, e.At)
		for _, id := range p.flows[e.Task] {
			p.events = append(p.events, map[string]any{
				"ph": "f", "bp": "e", "id": id, "name": "sem-grant", "cat": "sem",
				"pid": p.pid(c), "tid": p.tid(p.pid(c), e.Task), "ts": us(e.At),
			})
		}
		delete(p.flows, e.Task)
		p.cur[c] = e.Task
		p.start[c] = e.At
	case Idle:
		p.closeSlice(c, e.At)
	case Preempt, Complete, Miss, BlockEv, SemBlockWait:
		if e.Task == p.cur[c] {
			p.closeSlice(c, e.At)
		}
		p.instant(e)
	case Migrate:
		if e.Task == p.cur[c] {
			p.closeSlice(c, e.At)
		}
		p.nextID++
		p.events = append(p.events, map[string]any{
			"ph": "s", "id": p.nextID, "name": "migrate", "cat": "sched",
			"pid": p.pid(c), "tid": p.tid(p.pid(c), e.Task), "ts": us(e.At),
		})
		p.hops[e.Task] = append(p.hops[e.Task], p.nextID)
		p.instant(e)
	case MigrateDone:
		for _, id := range p.hops[e.Task] {
			p.events = append(p.events, map[string]any{
				"ph": "f", "bp": "e", "id": id, "name": "migrate", "cat": "sched",
				"pid": p.pid(c), "tid": p.tid(p.pid(c), e.Task), "ts": us(e.At),
			})
		}
		delete(p.hops, e.Task)
		p.instant(e)
	case SemGrant:
		p.nextID++
		from := p.cur[c]
		if from == "" {
			from = e.Task
		}
		p.events = append(p.events, map[string]any{
			"ph": "s", "id": p.nextID, "name": "sem-grant", "cat": "sem",
			"pid": p.pid(c), "tid": p.tid(p.pid(c), from), "ts": us(e.At),
		})
		p.flows[e.Task] = append(p.flows[e.Task], p.nextID)
		p.instant(e)
	default:
		p.instant(e)
	}
}

// buildPerfettoDoc builds the reference document for an event
// sequence, with extra top-level keys merged in.
func buildPerfettoDoc(events []Event, extra map[string]any) map[string]any {
	maxCPU := 0
	for _, e := range events {
		if e.CPU > maxCPU {
			maxCPU = e.CPU
		}
	}
	p := &mapExporter{
		multi: maxCPU > 0,
		tids:  map[tidKey]int{},
		cur:   make([]string, maxCPU+1),
		start: make([]vtime.Time, maxCPU+1),
		flows: map[string][]int{},
		hops:  map[string][]int{},
	}
	if p.multi {
		for c := 0; c <= maxCPU; c++ {
			p.events = append(p.events, map[string]any{
				"ph": "M", "name": "process_name", "pid": p.pid(c),
				"args": map[string]any{"name": fmt.Sprintf("emeralds cpu%d", c)},
			})
		}
	} else {
		p.events = append(p.events, map[string]any{
			"ph": "M", "name": "process_name", "pid": 1,
			"args": map[string]any{"name": "emeralds"},
		})
	}
	var last vtime.Time
	for _, e := range events {
		p.add(e)
		last = e.At
	}
	for c := range p.cur {
		p.closeSlice(c, last)
	}
	doc := map[string]any{"displayTimeUnit": "ms", "traceEvents": p.events}
	for k, v := range extra {
		doc[k] = v
	}
	return doc
}

// encodeRef encodes v the way the exports did before they streamed.
func encodeRef(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomLog records n pseudo-random events on up to cpus CPUs into a
// ring of the given capacity. Kinds lean towards the ones that open and
// close slices and flows, and include two past the last defined Kind;
// task and detail strings include ones that need every kind of JSON
// escape; timestamps never go backwards but reach past 2^40 ns.
func randomLog(rng *rand.Rand, n, cpus, capacity int) *Log {
	names := []string{"a", "b", "tau01", "isr", "-", "", `h<t>&"q"\`, "ctl\x01\n\t", "uni\u2028é", "bad\xff"}
	details := []string{"", "", "", "m", "to=cpu1", "m holder=b", "\u2029<&>", "\xfe\x80", "late by 1µs"}
	hot := []Kind{Dispatch, Dispatch, Preempt, Complete, Miss, BlockEv, SemBlockWait, SemGrant, Migrate, MigrateDone, Idle}
	l := New(capacity)
	var at vtime.Time
	for i := 0; i < n; i++ {
		at += vtime.Time(rng.Intn(3) * rng.Intn(5000))
		if rng.Intn(100) == 0 {
			at += 1 << 40
		}
		kind := hot[rng.Intn(len(hot))]
		if rng.Intn(2) == 0 {
			kind = Kind(rng.Intn(int(NumKinds) + 2))
		}
		var dur vtime.Duration
		if rng.Intn(3) == 0 {
			dur = vtime.Duration(rng.Int63n(1 << 24))
		}
		l.AddDurCPU(at, kind, names[rng.Intn(len(names))], details[rng.Intn(len(details))], dur, rng.Intn(cpus))
	}
	return l
}

// TestExportMatchesEncodingJSON: on random logs of 1–4 CPUs, wrapped
// and unwrapped, both ExportPerfetto forms and ExportJSON write exactly
// the bytes encoding/json writes for the reference documents. The last
// log is large enough to span several flushed chunks.
func TestExportMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i <= 400; i++ {
		n, cpus, capacity := rng.Intn(300), 1+rng.Intn(4), 1+rng.Intn(400)
		if i == 400 {
			n, capacity = 4000, 3000
		}
		l := randomLog(rng, n, cpus, capacity)
		events := l.Events()
		raw := refRaw(l)

		var bare, full, rawOut bytes.Buffer
		if err := ExportPerfetto(&bare, events); err != nil {
			t.Fatal(err)
		}
		if err := l.ExportPerfetto(&full); err != nil {
			t.Fatal(err)
		}
		if err := l.ExportJSON(&rawOut); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			got, want []byte
		}{
			{"ExportPerfetto", bare.Bytes(), encodeRef(t, buildPerfettoDoc(events, nil))},
			{"Log.ExportPerfetto", full.Bytes(), encodeRef(t, buildPerfettoDoc(events, map[string]any{"emeraldsTrace": raw}))},
			{"Log.ExportJSON", rawOut.Bytes(), encodeRef(t, raw)},
		} {
			if !bytes.Equal(c.got, c.want) {
				at := 0
				for at < len(c.got) && at < len(c.want) && c.got[at] == c.want[at] {
					at++
				}
				t.Fatalf("log %d (%d events, %d CPUs, capacity %d): %s differs from encoding/json at byte %d\ngot:  %.200s\nwant: %.200s",
					i, n, cpus, capacity, c.name, at, c.got[at:], c.want[at:])
			}
		}
	}
}

// failWriter accepts ok writes, then fails every later one.
type failWriter struct {
	ok     int
	writes int
}

var errSink = errors.New("sink full")

func (f *failWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.ok {
		return 0, errSink
	}
	return len(p), nil
}

// TestExportReturnsFirstWriteError: a destination that fails part-way
// through a multi-chunk export surfaces its error, and the writer stops
// writing to it.
func TestExportReturnsFirstWriteError(t *testing.T) {
	l := randomLog(rand.New(rand.NewSource(2)), 5000, 2, 5000)
	for name, export := range map[string]func(io.Writer) error{
		"ExportPerfetto": l.ExportPerfetto,
		"ExportJSON":     l.ExportJSON,
	} {
		w := &failWriter{ok: 1}
		if err := export(w); !errors.Is(err, errSink) {
			t.Errorf("%s: err = %v, want %v", name, err, errSink)
		}
		if w.writes != 2 {
			t.Errorf("%s: %d writes, want 2 (stop after the first failure)", name, w.writes)
		}
	}
}

// TestExportPerfettoAllocationFreePerEvent: the export allocates per
// task, CPU and chunk of output, never per event — ten times the events
// over the same tasks cost the same allocations.
func TestExportPerfettoAllocationFreePerEvent(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		allocs := func(n int) float64 {
			l := logOf(cycleEvents(n, cpus))
			// Finish the collection building the log may have started:
			// the runtime can allocate during one, and AllocsPerRun would
			// count it.
			runtime.GC()
			return testing.AllocsPerRun(5, func() {
				if err := l.ExportPerfetto(io.Discard); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(1000), allocs(10000); small != large {
			t.Errorf("%d CPUs: ExportPerfetto allocates %v times for 1k events, %v for 10k; want equal", cpus, small, large)
		}
	}
}
