package trace

import (
	"fmt"
	"io"
	"strconv"

	"emeralds/internal/vtime"
)

// Perfetto export: converts a recorded event log into the Chrome
// trace-event JSON format, loadable in ui.perfetto.dev or
// chrome://tracing. The mapping is
//
//   - one thread track per task (plus synthetic tracks for "isr" etc.),
//     named by "M"/thread_name metadata events in order of first
//     appearance;
//   - a "X" complete slice per scheduling quantum, opened at dispatch
//     and closed when the task is preempted, blocks, completes, or the
//     CPU goes idle;
//   - "i" instant events (thread scope) for everything else — deadline
//     misses, faults, releases, semaphore and IPC operations — so no
//     recorded kind is silently dropped;
//   - "s"/"f" flow arrows from each semaphore grant to the granted
//     waiter's next dispatch, making the handoff visible across tracks;
//   - on multicore traces, one Perfetto process per CPU (pid = cpu+1,
//     named "emeralds cpuN") with each task's track living in the
//     process of the CPU it runs on, and migrate→migrate-done flow
//     arrows showing each task's hop between CPUs. Single-CPU traces
//     keep the classic single-process layout, byte for byte.
//
// Timestamps are microseconds (the trace-event unit); virtual time is
// nanoseconds, so sub-microsecond costs keep three decimal places. They
// are written from the integer nanoseconds (appendUs), in the bytes
// encoding/json writes for the float microseconds.
//
// Each task name is interned once per export into a taskSlot that
// holds its escaped name and its per-task state, so an event costs one
// map lookup.
//
// The document is streamed through a jsonWriter, one object at a time,
// reading the events in place. Each object is built in a local slice
// and stored back into the writer once (see jsonwriter.go). Each object
// kind writes its keys in lexical order, the order encoding/json gives
// map keys, so the export is byte-identical to encoding one map per
// trace event and byte-deterministic for a given event sequence.

// perfettoWriter streams trace-event objects.
type perfettoWriter struct {
	jsonWriter
	n      int            // trace-event objects written so far
	multi  bool           // per-CPU processes (any event names a CPU > 0)
	slotOf map[string]int // task name → its index in slots
	slots  []taskSlot
	ntids  int          // track ids handed out, in first-use order
	cur    []int        // per-CPU: slot owning the open run slice, idleSlot when idle
	start  []vtime.Time // per-CPU: open slice's start
	nextID int          // flow-event id allocator
}

// taskSlot is one task name, interned once per export, with everything
// the export keeps per task.
type taskSlot struct {
	name  string // the name as a JSON string, escaped once
	tids  []int  // track id per process (index pid-1); 0 before first use
	flows []int  // pending sem-grant flow ids, landing at the next dispatch
	hops  []int  // open migrate→migrate-done flow ids
}

// idleSlot is the slot of the empty task name, interned first. A CPU
// whose cur is idleSlot has no open run slice, so a task with the empty
// name never opens one.
const idleSlot = 0

func us(t vtime.Time) float64 { return float64(t) / 1e3 }

func newPerfettoWriter(w io.Writer) *perfettoWriter {
	return &perfettoWriter{jsonWriter: newJSONWriter(w)}
}

// pid maps a CPU to its Perfetto process: the classic single process
// for single-CPU traces, one process per CPU otherwise.
func (p *perfettoWriter) pid(cpu int) int {
	if !p.multi {
		return 1
	}
	return cpu + 1
}

// slot returns the slot of task, interning it on first sight.
func (p *perfettoWriter) slot(task string) int {
	if s, ok := p.slotOf[task]; ok {
		return s
	}
	s := len(p.slots)
	p.slotOf[task] = s
	// One track id per process, and there are as many processes as
	// entries in cur.
	p.slots = append(p.slots, taskSlot{name: string(appendString(nil, task)), tids: make([]int, len(p.cur))})
	return s
}

// begin opens the next element of the traceEvents array and returns
// the buffer to append its members to; end stores the buffer back.
// Objects are built in a local slice because every store of the
// buffer into the writer runs a write barrier while the garbage
// collector marks: one store per object instead of one per member.
func (p *perfettoWriter) begin() []byte {
	b := p.buf
	if p.n > 0 {
		b = append(b, ',')
	}
	p.n++
	return append(b, '{')
}

// end closes the element begin opened.
func (p *perfettoWriter) end(b []byte) {
	p.buf = append(b, '}')
	p.maybeFlush()
}

// appendTrack appends the "pid" and "tid" members, which sort together
// in every object kind but the instant.
func appendTrack(b []byte, pid, tid int) []byte {
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	return strconv.AppendInt(b, int64(tid), 10)
}

// tid returns the stable per-(process, task) track id of slot s,
// emitting the thread_name metadata event on first use. Callers resolve
// the id before opening their own object, so the metadata precedes it.
func (p *perfettoWriter) tid(pid, s int) int {
	slot := &p.slots[s]
	if id := slot.tids[pid-1]; id != 0 {
		return id
	}
	p.ntids++
	slot.tids[pid-1] = p.ntids
	b := append(p.begin(), `"args":{"name":`...)
	b = append(b, slot.name...)
	b = append(b, `},"name":"thread_name","ph":"M"`...)
	p.end(appendTrack(b, pid, p.ntids))
	return p.ntids
}

func (p *perfettoWriter) closeSlice(cpu int, at vtime.Time) {
	s := p.cur[cpu]
	if s == idleSlot {
		return
	}
	pid := p.pid(cpu)
	tid := p.tid(pid, s)
	start := p.start[cpu]
	b := append(p.begin(), `"cat":"task","dur":`...)
	// The duration is the difference of the two float timestamps, which
	// is inexact for most slices; it is written from the integer
	// nanoseconds only when the difference is the exact quotient.
	if d := us(at) - us(start); d == float64(at-start)/1e3 {
		b = appendUs(b, int64(at-start))
	} else {
		b = appendFloat(b, d)
	}
	b = append(b, `,"name":"run","ph":"X"`...)
	b = appendTrack(b, pid, tid)
	b = append(b, `,"ts":`...)
	p.end(appendUs(b, int64(start)))
	p.cur[cpu] = idleSlot
}

// flow writes one end of a flow arrow on slot s's track: ph 's' starts
// arrow id, ph 'f' lands it on the enclosing slice ("bp":"e"). name and
// cat are literals that need no escaping.
func (p *perfettoWriter) flow(ph string, id int, name, cat string, cpu, s int, at vtime.Time) {
	pid := p.pid(cpu)
	tid := p.tid(pid, s)
	b := p.begin()
	if ph == "f" {
		b = append(b, `"bp":"e",`...)
	}
	b = append(b, `"cat":"`...)
	b = append(b, cat...)
	b = append(b, `","id":`...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, `,"name":"`...)
	b = append(b, name...)
	b = append(b, `","ph":"`...)
	b = append(b, ph...)
	b = append(b, '"')
	b = appendTrack(b, pid, tid)
	b = append(b, `,"ts":`...)
	p.end(appendUs(b, int64(at)))
}

func (p *perfettoWriter) instant(e *Event, s int) {
	pid := p.pid(e.CPU)
	tid := p.tid(pid, s)
	b := p.begin()
	if e.Detail != "" || e.Dur != 0 {
		b = append(b, `"args":{`...)
		if e.Detail != "" {
			b = append(b, `"detail":`...)
			b = appendString(b, e.Detail)
			if e.Dur != 0 {
				b = append(b, ',')
			}
		}
		if e.Dur != 0 {
			// Occupancy-end events carry the kernel overhead consumed during
			// the quantum they close (see Event.Dur).
			b = append(b, `"overhead_us":`...)
			b = appendUs(b, int64(e.Dur))
		}
		b = append(b, "},"...)
	}
	b = append(b, `"cat":"kernel","name":`...)
	b = appendKind(b, e.Kind)
	b = append(b, `,"ph":"i","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"s":"t","tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	p.end(appendUs(b, int64(e.At)))
}

func (p *perfettoWriter) add(e *Event) {
	c := e.CPU
	if e.Kind == Idle {
		p.closeSlice(c, e.At)
		return
	}
	s := p.slot(e.Task)
	switch e.Kind {
	case Dispatch:
		p.closeSlice(c, e.At)
		// Close pending grant→dispatch flow arrows landing here.
		if ids := p.slots[s].flows; len(ids) > 0 {
			for _, id := range ids {
				p.flow("f", id, "sem-grant", "sem", c, s, e.At)
			}
			p.slots[s].flows = ids[:0]
		}
		p.cur[c] = s
		p.start[c] = e.At
	case Preempt, Complete, Miss, BlockEv, SemBlockWait:
		if s == p.cur[c] {
			p.closeSlice(c, e.At)
		}
		p.instant(e, s)
	case Migrate:
		// The task leaves this CPU: close its slice if it was running and
		// open a flow arrow that lands at the migrate-done on the target.
		if s == p.cur[c] {
			p.closeSlice(c, e.At)
		}
		p.nextID++
		p.flow("s", p.nextID, "migrate", "sched", c, s, e.At)
		p.slots[s].hops = append(p.slots[s].hops, p.nextID)
		p.instant(e, s)
	case MigrateDone:
		if ids := p.slots[s].hops; len(ids) > 0 {
			for _, id := range ids {
				p.flow("f", id, "migrate", "sched", c, s, e.At)
			}
			p.slots[s].hops = ids[:0]
		}
		p.instant(e, s)
	case SemGrant:
		// The grant executes on the releasing task's track (the one
		// running now); the arrow lands on the waiter's next dispatch.
		p.nextID++
		from := p.cur[c]
		if from == idleSlot {
			from = s
		}
		p.flow("s", p.nextID, "sem-grant", "sem", c, from, e.At)
		p.slots[s].flows = append(p.slots[s].flows, p.nextID)
		p.instant(e, s)
	default:
		p.instant(e, s)
	}
}

// traceEvents writes the "traceEvents" member for the events of segs,
// which together form one chronological sequence.
func (p *perfettoWriter) traceEvents(segs [][]Event) {
	maxCPU := 0
	for _, seg := range segs {
		for i := range seg {
			maxCPU = max(maxCPU, seg[i].CPU)
		}
	}
	p.multi = maxCPU > 0
	p.cur = make([]int, maxCPU+1)
	p.start = make([]vtime.Time, maxCPU+1)
	p.slotOf = map[string]int{}
	p.slot("") // idleSlot
	p.lit(`"traceEvents":[`)
	if p.multi {
		for c := 0; c <= maxCPU; c++ {
			b := append(p.begin(), `"args":{"name":"emeralds cpu`...)
			b = strconv.AppendInt(b, int64(c), 10)
			b = append(b, `"},"name":"process_name","ph":"M","pid":`...)
			p.end(strconv.AppendInt(b, int64(p.pid(c)), 10))
		}
	} else {
		p.end(append(p.begin(), `"args":{"name":"emeralds"},"name":"process_name","ph":"M","pid":1`...))
	}
	var last vtime.Time
	for _, seg := range segs {
		for i := range seg {
			if p.err != nil {
				return
			}
			p.add(&seg[i])
			last = seg[i].At
		}
	}
	for c := range p.cur {
		p.closeSlice(c, last) // a slice still open ends at the last event
	}
	p.lit("]")
}

// ExportPerfetto writes events as Chrome/Perfetto trace-event JSON.
func ExportPerfetto(w io.Writer, events []Event) error {
	p := newPerfettoWriter(w)
	p.lit(`{"displayTimeUnit":"ms",`)
	p.traceEvents([][]Event{events})
	p.lit("}\n")
	return p.flush()
}

// ExportPerfetto exports a log's retained events, embedding the raw
// event log under "emeraldsTrace" (ignored by Perfetto, replayable by
// cmd/emreport and package attrib — one file serves both).
func (l *Log) ExportPerfetto(w io.Writer) error {
	if l == nil {
		return fmt.Errorf("trace: nil log")
	}
	p := newPerfettoWriter(w)
	p.lit(`{"displayTimeUnit":"ms","emeraldsTrace":`)
	l.writeRaw(&p.jsonWriter)
	p.lit(",")
	p.traceEvents(l.segments())
	p.lit("}\n")
	return p.flush()
}
