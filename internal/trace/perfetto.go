package trace

import (
	"fmt"
	"io"

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
// nanoseconds, so sub-microsecond costs keep three decimal places.
//
// The document is streamed through a jsonWriter, one object at a time,
// reading the events in place. Each object kind writes its keys in
// lexical order, the order encoding/json gives map keys, so the export
// is byte-identical to encoding one map per trace event and
// byte-deterministic for a given event sequence.

// perfettoWriter streams trace-event objects.
type perfettoWriter struct {
	jsonWriter
	n      int              // trace-event objects written so far
	multi  bool             // per-CPU processes (any event names a CPU > 0)
	tids   map[tidKey]int   // (pid, task) → track id
	cur    []string         // per-CPU: task owning the open run slice, "" when idle
	start  []vtime.Time     // per-CPU: open slice's start
	nextID int              // flow-event id allocator
	flows  map[string][]int // pending sem-grant flow ids per waiter
	hops   map[string][]int // open migrate→migrate-done flow ids per task
}

type tidKey struct {
	pid  int
	task string
}

func us(t vtime.Time) float64 { return float64(t) / 1e3 }

func newPerfettoWriter(w io.Writer) *perfettoWriter {
	return &perfettoWriter{
		jsonWriter: newJSONWriter(w),
		tids:       map[tidKey]int{},
		flows:      map[string][]int{},
		hops:       map[string][]int{},
	}
}

// pid maps a CPU to its Perfetto process: the classic single process
// for single-CPU traces, one process per CPU otherwise.
func (p *perfettoWriter) pid(cpu int) int {
	if !p.multi {
		return 1
	}
	return cpu + 1
}

// begin opens the next element of the traceEvents array.
func (p *perfettoWriter) begin() {
	if p.n > 0 {
		p.lit(",")
	}
	p.n++
	p.lit("{")
}

// end closes the element begin opened.
func (p *perfettoWriter) end() {
	p.lit("}")
	p.maybeFlush()
}

// track appends the "pid" and "tid" members, which sort together in
// every object kind but the instant.
func (p *perfettoWriter) track(pid, tid int) {
	p.lit(`,"pid":`)
	p.num(int64(pid))
	p.lit(`,"tid":`)
	p.num(int64(tid))
}

// tid returns the stable per-(process, task) track id, emitting the
// thread_name metadata event on first use. Callers resolve the id
// before opening their own object, so the metadata precedes it.
func (p *perfettoWriter) tid(pid int, task string) int {
	key := tidKey{pid, task}
	if id, ok := p.tids[key]; ok {
		return id
	}
	id := len(p.tids) + 1
	p.tids[key] = id
	p.begin()
	p.lit(`"args":{"name":`)
	p.str(task)
	p.lit(`},"name":"thread_name","ph":"M"`)
	p.track(pid, id)
	p.end()
	return id
}

func (p *perfettoWriter) closeSlice(cpu int, at vtime.Time) {
	task := p.cur[cpu]
	if task == "" {
		return
	}
	pid := p.pid(cpu)
	tid := p.tid(pid, task)
	p.begin()
	p.lit(`"cat":"task","dur":`)
	p.float(us(at) - us(p.start[cpu]))
	p.lit(`,"name":"run","ph":"X"`)
	p.track(pid, tid)
	p.lit(`,"ts":`)
	p.float(us(p.start[cpu]))
	p.end()
	p.cur[cpu] = ""
}

// flow writes one end of a flow arrow on task's track: ph 's' starts
// arrow id, ph 'f' lands it on the enclosing slice ("bp":"e"). name and
// cat are literals that need no escaping.
func (p *perfettoWriter) flow(ph string, id int, name, cat string, cpu int, task string, at vtime.Time) {
	pid := p.pid(cpu)
	tid := p.tid(pid, task)
	p.begin()
	if ph == "f" {
		p.lit(`"bp":"e",`)
	}
	p.lit(`"cat":"`)
	p.lit(cat)
	p.lit(`","id":`)
	p.num(int64(id))
	p.lit(`,"name":"`)
	p.lit(name)
	p.lit(`","ph":"`)
	p.lit(ph)
	p.lit(`"`)
	p.track(pid, tid)
	p.lit(`,"ts":`)
	p.float(us(at))
	p.end()
}

func (p *perfettoWriter) instant(e *Event) {
	pid := p.pid(e.CPU)
	tid := p.tid(pid, e.Task)
	p.begin()
	if e.Detail != "" || e.Dur != 0 {
		p.lit(`"args":{`)
		if e.Detail != "" {
			p.lit(`"detail":`)
			p.str(e.Detail)
			if e.Dur != 0 {
				p.lit(",")
			}
		}
		if e.Dur != 0 {
			// Occupancy-end events carry the kernel overhead consumed during
			// the quantum they close (see Event.Dur).
			p.lit(`"overhead_us":`)
			p.float(float64(e.Dur) / 1e3)
		}
		p.lit("},")
	}
	p.lit(`"cat":"kernel","name":`)
	p.str(e.Kind.String())
	p.lit(`,"ph":"i","pid":`)
	p.num(int64(pid))
	p.lit(`,"s":"t","tid":`)
	p.num(int64(tid))
	p.lit(`,"ts":`)
	p.float(us(e.At))
	p.end()
}

func (p *perfettoWriter) add(e *Event) {
	c := e.CPU
	switch e.Kind {
	case Dispatch:
		p.closeSlice(c, e.At)
		// Close pending grant→dispatch flow arrows landing here.
		if ids := p.flows[e.Task]; len(ids) > 0 {
			for _, id := range ids {
				p.flow("f", id, "sem-grant", "sem", c, e.Task, e.At)
			}
			p.flows[e.Task] = ids[:0]
		}
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
		// The task leaves this CPU: close its slice if it was running and
		// open a flow arrow that lands at the migrate-done on the target.
		if e.Task == p.cur[c] {
			p.closeSlice(c, e.At)
		}
		p.nextID++
		p.flow("s", p.nextID, "migrate", "sched", c, e.Task, e.At)
		p.hops[e.Task] = append(p.hops[e.Task], p.nextID)
		p.instant(e)
	case MigrateDone:
		if ids := p.hops[e.Task]; len(ids) > 0 {
			for _, id := range ids {
				p.flow("f", id, "migrate", "sched", c, e.Task, e.At)
			}
			p.hops[e.Task] = ids[:0]
		}
		p.instant(e)
	case SemGrant:
		// The grant executes on the releasing task's track (the one
		// running now); the arrow lands on the waiter's next dispatch.
		p.nextID++
		from := p.cur[c]
		if from == "" {
			from = e.Task
		}
		p.flow("s", p.nextID, "sem-grant", "sem", c, from, e.At)
		p.flows[e.Task] = append(p.flows[e.Task], p.nextID)
		p.instant(e)
	default:
		p.instant(e)
	}
}

// traceEvents writes the "traceEvents" member for the events of segs,
// which together form one chronological sequence.
func (p *perfettoWriter) traceEvents(segs ...[]Event) {
	maxCPU := 0
	for _, seg := range segs {
		for i := range seg {
			maxCPU = max(maxCPU, seg[i].CPU)
		}
	}
	p.multi = maxCPU > 0
	p.cur = make([]string, maxCPU+1)
	p.start = make([]vtime.Time, maxCPU+1)
	p.lit(`"traceEvents":[`)
	if p.multi {
		for c := 0; c <= maxCPU; c++ {
			p.begin()
			p.lit(`"args":{"name":"emeralds cpu`)
			p.num(int64(c))
			p.lit(`"},"name":"process_name","ph":"M","pid":`)
			p.num(int64(p.pid(c)))
			p.end()
		}
	} else {
		p.begin()
		p.lit(`"args":{"name":"emeralds"},"name":"process_name","ph":"M","pid":1`)
		p.end()
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
	p.traceEvents(events)
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
	older, newer := l.segments()
	p := newPerfettoWriter(w)
	p.lit(`{"displayTimeUnit":"ms","emeraldsTrace":`)
	l.writeRaw(&p.jsonWriter)
	p.lit(",")
	p.traceEvents(older, newer)
	p.lit("}\n")
	return p.flush()
}
