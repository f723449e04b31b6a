// Package attrib decomposes task response times from a kernel trace.
//
// The kernel's trace ring (package trace) records every scheduling
// transition, and since PR 3 the events that end a CPU occupancy carry
// the kernel overhead consumed during it (trace.Event.Dur). Replaying
// those events reconstructs, for every task activation, an *exact*
// partition of its response time into four components:
//
//   - Running: useful compute the task itself executed;
//   - Preempted: ready but not running, attributed to the task that
//     occupied the CPU instead;
//   - Blocked: waiting on a semaphore (attributed to the holder, with
//     the full priority-inheritance blocking chain resolved) or on a
//     non-semaphore reason (delay, event, mailbox, suspension);
//   - Overhead: scheduler, context-switch, and kernel-operation time
//     consumed inside the task's own occupancies.
//
// The invariant — locked by a property test over random workloads — is
// that the four components sum to the measured response time with zero
// residual, and the labeled intervals tile the activation span exactly.
// Overhead placement inside an occupancy is canonical (booked at the
// end of the occupancy span); its amount is exact.
//
// On top of the partition the package derives deadline-miss root-cause
// reports (the intervals that consumed the slack, with named culprit
// tasks and semaphores) and flags priority-inversion windows: spans
// where a task was semaphore-blocked while a lower-priority task
// outside its blocking chain held the CPU — the unbounded inversion
// that priority inheritance exists to prevent.
package attrib

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

// Component classifies one slice of an activation's response time.
type Component uint8

const (
	Running Component = iota
	Preempted
	Blocked
	Overhead
	// Migration is time spent in transit between CPUs (multicore traces
	// only; always zero on single-CPU traces and omitted from their
	// serialized reports).
	Migration

	// NumComponents is the number of components (sentinel).
	NumComponents
)

var componentNames = [NumComponents]string{
	"running", "preempted", "blocked", "overhead", "migration",
}

func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return fmt.Sprintf("component(%d)", uint8(c))
}

// Interval is one labeled slice of an activation.
type Interval struct {
	From, To vtime.Time
	Comp     Component
	// Culprit names who consumed the span: the occupying task for
	// Preempted, the semaphore holder (or blocking reason) for Blocked,
	// "" for Running and Overhead (the task itself / the kernel).
	Culprit string
	// Sem is the semaphore name for semaphore-blocked intervals.
	Sem string
	// Chain is the full blocking chain for semaphore-blocked intervals:
	// task → holder → (holder's holder) …, starting at the direct
	// holder.
	Chain []string
	// Inversion marks a Blocked span during which a task outside the
	// blocking chain, with lower priority than the blocked task, held
	// the CPU.
	Inversion bool
	// Runner is the task occupying the CPU during a Blocked span ("" if
	// idle); the inversion culprit when Inversion is set.
	Runner string
}

// Dur is the interval's length.
func (iv Interval) Dur() vtime.Duration { return iv.To.Sub(iv.From) }

// Activation is one job of a task, released to retired.
type Activation struct {
	Task       string
	Index      int // per-task activation number, 0-based
	ReleasedAt vtime.Time
	EndAt      vtime.Time
	Deadline   vtime.Time // absolute; ReleasedAt + relative deadline
	Missed     bool
	// Aborted marks activations torn down by a fault (job-killed) or
	// cut off by the end of the trace; their partition is still exact
	// over [ReleasedAt, EndAt] but they never retired.
	Aborted   bool
	Response  vtime.Duration
	Comp      [NumComponents]vtime.Duration
	Intervals []Interval
}

// Residual is Response minus the component sum — zero for an exact
// partition. The property test locks it to zero for every activation.
func (a *Activation) Residual() vtime.Duration {
	sum := a.Response
	for _, c := range a.Comp {
		sum -= c
	}
	return sum
}

// TaskInfo is a task's static parameters, parsed from the task-info
// events the kernel emits at boot.
type TaskInfo struct {
	Name     string
	Prio     int // base priority; smaller is higher; -1 when unknown
	Period   vtime.Duration
	Deadline vtime.Duration // relative
}

// Inversion is one merged priority-inversion window.
type Inversion struct {
	Task     string // the blocked victim
	Sem      string
	Runner   string // the lower-priority task that held the CPU
	From, To vtime.Time
}

// Dur is the window's length.
func (iv Inversion) Dur() vtime.Duration { return iv.To.Sub(iv.From) }

// Overrun is a lost release: the previous job of the task was still
// running (or the task was suspended) at release time — a guaranteed
// miss with no activation of its own to partition.
type Overrun struct {
	Task string
	At   vtime.Time
}

// Analysis is the full replay result.
type Analysis struct {
	Tasks       []TaskInfo   // in first-appearance order
	Activations []Activation // in completion order
	Inversions  []Inversion  // in start order, adjacent windows merged
	// Overruns lists lost releases in trace order.
	Overruns []Overrun
	// Open counts activations still in flight when the trace ended,
	// per task; they are closed as Aborted at the last event time.
	Open map[string]int
	// Dropped is the number of trace events lost to ring overflow.
	// Always zero since Analyze refuses truncated traces; kept for
	// artifact-schema stability.
	Dropped uint64
}

// Info returns the static parameters for a task name.
func (an *Analysis) Info(name string) (TaskInfo, bool) {
	for _, ti := range an.Tasks {
		if ti.Name == name {
			return ti, true
		}
	}
	return TaskInfo{}, false
}

// --- replay state machine -------------------------------------------

type taskState uint8

const (
	stOff taskState = iota
	stReady
	stRunning
	stBlocked    // non-semaphore block (delay, event, mailbox, suspend)
	stBlockedSem // semaphore wait
	stMigrating  // in transit between CPUs (multicore traces)
)

type replayTask struct {
	info       TaskInfo
	state      taskState
	since      vtime.Time // last interval cut for non-running states
	runStart   vtime.Time // dispatch instant while running
	act        *Activation
	actCount   int
	waitSem    string    // semaphore name while stBlockedSem
	holder     string    // holder recorded in the block event's detail
	reason     string    // blocking reason while stBlocked
	cpu        int       // CPU whose runner attributes this task's waits
	premigrate taskState // state to restore at migrate-done
	migTarget  string    // migrate detail ("to=cpuN") while in transit
}

type replay struct {
	order   []string
	tasks   map[string]*replayTask
	running []string // per-CPU: task occupying the CPU, "" when idle
	semOwn  map[string]string
	an      *Analysis
	invOpen map[string]*Inversion // victim → open inversion window
}

// runningOn reports the task occupying CPU c ("" when idle or the CPU
// never appeared in the trace).
func (r *replay) runningOn(c int) string {
	if c < 0 || c >= len(r.running) {
		return ""
	}
	return r.running[c]
}

// setRunning records CPU c's occupant, growing the per-CPU slate on
// first sight of a new CPU.
func (r *replay) setRunning(c int, task string) {
	for len(r.running) <= c {
		r.running = append(r.running, "")
	}
	r.running[c] = task
}

// ErrTruncated reports that a trace lost events to ring overflow.
// Attribution over a truncated window is silently wrong — the oldest
// activations are missing their releases, so state-machine replay
// starts mid-flight and every derived number (response, blocking,
// inversion windows) is suspect. Analyze therefore refuses instead of
// salvaging; size the ring (sim.Config.TraceCapacity / -trace-cap)
// for the full horizon and rerun.
var ErrTruncated = errors.New("attrib: trace ring overflowed; attribution over a truncated window would be wrong — enlarge the trace capacity and rerun")

// Analyze replays a trace into per-activation attribution. dropped is
// the trace ring's overwrite count (trace.Log.Dropped or the raw JSON
// header); any non-zero value is refused with ErrTruncated. Events
// must be in time order and name non-negative CPUs.
func Analyze(events []trace.Event, dropped uint64) (*Analysis, error) {
	if dropped > 0 {
		return nil, fmt.Errorf("%w (%d events dropped)", ErrTruncated, dropped)
	}
	r := &replay{
		tasks:   map[string]*replayTask{},
		semOwn:  map[string]string{},
		invOpen: map[string]*Inversion{},
		an: &Analysis{
			Open:    map[string]int{},
			Dropped: dropped,
		},
	}
	var last vtime.Time
	for i, e := range events {
		if e.At < last {
			return nil, fmt.Errorf("attrib: event %d (%v %s) goes backwards in time", i, e.Kind, e.Task)
		}
		if e.CPU < 0 {
			return nil, fmt.Errorf("attrib: event %d (%v %s) names negative cpu %d", i, e.Kind, e.Task, e.CPU)
		}
		last = e.At
		r.step(e)
	}
	// Close activations still in flight at the last event time.
	r.closeSpans(last)
	for _, name := range r.order {
		t := r.tasks[name]
		if t.act != nil {
			if t.state == stRunning {
				// No occupancy-end event: the span since dispatch cannot
				// be split into running/overhead; book it as running.
				t.appendInterval(Interval{From: t.runStart, To: last, Comp: Running})
			}
			t.act.Aborted = true
			r.an.Open[name]++
			r.finish(t, last)
		}
	}
	for _, name := range r.order {
		r.an.Tasks = append(r.an.Tasks, r.tasks[name].info)
	}
	sort.SliceStable(r.an.Inversions, func(i, j int) bool {
		return r.an.Inversions[i].From < r.an.Inversions[j].From
	})
	return r.an, nil
}

func (r *replay) task(name string) *replayTask {
	if t, ok := r.tasks[name]; ok {
		return t
	}
	t := &replayTask{info: TaskInfo{Name: name, Prio: -1}}
	r.tasks[name] = t
	r.order = append(r.order, name)
	return t
}

// step applies one event: close the attribution spans that end at its
// timestamp under the *pre-event* context, then apply the transition.
func (r *replay) step(e trace.Event) {
	switch e.Kind {
	case trace.TaskInfo:
		t := r.task(e.Task)
		t.info = parseTaskInfo(e.Task, e.Detail)
		t.cpu = e.CPU // boot-time placement
		return
	case trace.Release:
		r.closeSpans(e.At)
		t := r.task(e.Task)
		if t.act != nil {
			// The kernel loses overrun releases (no Release event) and
			// emits Overrun instead; a Release over a live activation
			// means the trace window started mid-activation. Close the
			// stale one as aborted.
			t.act.Aborted = true
			r.finish(t, e.At)
		}
		t.act = &Activation{
			Task:       e.Task,
			Index:      t.actCount,
			ReleasedAt: e.At,
			Deadline:   e.At.Add(t.info.Deadline),
		}
		t.actCount++
		t.state = stReady
		t.since = e.At
	case trace.Overrun:
		r.an.Overruns = append(r.an.Overruns, Overrun{Task: e.Task, At: e.At})
	case trace.Dispatch:
		r.closeSpans(e.At)
		t := r.task(e.Task)
		t.cpu = e.CPU
		if t.act == nil {
			// Activation released before the trace window; track CPU
			// occupancy anyway so other tasks' ready time attributes.
			r.setRunning(e.CPU, e.Task)
			t.state = stRunning
			t.runStart = e.At
			return
		}
		t.state = stRunning
		t.runStart = e.At
		r.setRunning(e.CPU, e.Task)
	case trace.Preempt:
		r.closeSpans(e.At)
		t := r.task(e.Task)
		if t.state == stRunning {
			t.endOccupancy(e.At, e.Dur)
			t.state = stReady
			t.since = e.At
		}
		if r.runningOn(e.CPU) == e.Task {
			r.setRunning(e.CPU, "")
		}
	case trace.BlockEv:
		r.closeSpans(e.At)
		t := r.task(e.Task)
		if t.state == stRunning {
			t.endOccupancy(e.At, e.Dur)
			if r.runningOn(e.CPU) == e.Task {
				r.setRunning(e.CPU, "")
			}
		}
		if e.Detail == "job-killed" {
			if t.act != nil {
				t.act.Aborted = true
				r.finish(t, e.At)
			}
			t.state = stOff
			return
		}
		if t.state == stMigrating {
			// Blocked mid-transit (e.g. suspension): the transit span
			// keeps accruing as Migration; restore the blocked state at
			// arrival instead.
			t.premigrate = stBlocked
			t.reason = e.Detail
			return
		}
		t.state = stBlocked
		t.reason = e.Detail
		t.since = e.At
	case trace.SemBlockWait, trace.SemHintPI:
		r.closeSpans(e.At)
		t := r.task(e.Task)
		if t.state == stRunning {
			t.endOccupancy(e.At, e.Dur)
			if r.runningOn(e.CPU) == e.Task {
				r.setRunning(e.CPU, "")
			}
		}
		if t.state == stMigrating {
			t.premigrate = stBlockedSem
			t.waitSem, t.holder = parseSemDetail(e.Detail)
			return
		}
		t.state = stBlockedSem
		t.waitSem, t.holder = parseSemDetail(e.Detail)
		t.since = e.At
	case trace.SemAcquire:
		r.semOwn[e.Detail] = e.Task
	case trace.SemGrant:
		r.closeSpans(e.At)
		r.semOwn[e.Detail] = e.Task
		t := r.task(e.Task)
		if t.state == stBlockedSem || t.state == stBlocked {
			t.state = stReady
			t.waitSem, t.holder = "", ""
			t.since = e.At
		}
	case trace.SemRelease:
		if r.semOwn[e.Detail] == e.Task {
			delete(r.semOwn, e.Detail)
		}
	case trace.Fault:
		if sem, ok := strings.CutPrefix(e.Detail, "job ended holding "); ok {
			if r.semOwn[sem] == e.Task {
				delete(r.semOwn, sem)
			}
		}
	case trace.UnblockEv:
		r.closeSpans(e.At)
		t := r.task(e.Task)
		if t.state == stMigrating {
			// A wakeup landing mid-transit: the task becomes ready on
			// arrival, but the transit span stays Migration.
			t.premigrate = stReady
			return
		}
		if t.state == stBlocked || t.state == stBlockedSem {
			t.state = stReady
			t.waitSem, t.holder = "", ""
			t.since = e.At
		}
	case trace.Migrate:
		r.closeSpans(e.At)
		t := r.task(e.Task)
		if t.state == stRunning {
			t.endOccupancy(e.At, e.Dur)
			if r.runningOn(e.CPU) == e.Task {
				r.setRunning(e.CPU, "")
			}
			t.premigrate = stReady
		} else {
			t.premigrate = t.state
		}
		t.state = stMigrating
		t.migTarget = e.Detail
		t.since = e.At
	case trace.MigrateDone:
		r.closeSpans(e.At)
		t := r.task(e.Task)
		t.cpu = e.CPU
		if t.state == stMigrating {
			t.state = t.premigrate
			if t.state == stOff || t.state == stRunning {
				t.state = stReady
			}
			t.migTarget = ""
			t.since = e.At
		}
	case trace.Complete, trace.Miss:
		r.closeSpans(e.At)
		t := r.task(e.Task)
		if t.state == stRunning {
			t.endOccupancy(e.At, e.Dur)
		}
		if r.runningOn(e.CPU) == e.Task {
			r.setRunning(e.CPU, "")
		}
		if t.act != nil {
			t.act.Missed = e.Kind == trace.Miss
			r.finish(t, e.At)
		}
		t.state = stOff
	case trace.Idle:
		r.closeSpans(e.At)
		r.setRunning(e.CPU, "")
	}
}

// finish retires the task's live activation at instant end.
func (r *replay) finish(t *replayTask, end vtime.Time) {
	a := t.act
	t.act = nil
	a.EndAt = end
	a.Response = end.Sub(a.ReleasedAt)
	for _, iv := range a.Intervals {
		a.Comp[iv.Comp] += iv.Dur()
	}
	r.endInversion(a.Task, end)
	r.an.Activations = append(r.an.Activations, *a)
}

// endOccupancy books the span since dispatch as running plus a trailing
// overhead slice of the length the kernel attached to the ending event.
// The placement is canonical; the amounts are exact.
func (t *replayTask) endOccupancy(at vtime.Time, overhead vtime.Duration) {
	split := at.Add(-overhead)
	t.appendInterval(Interval{From: t.runStart, To: split, Comp: Running})
	t.appendInterval(Interval{From: split, To: at, Comp: Overhead})
}

// appendInterval adds a non-empty interval to the live activation,
// coalescing with an identically-labeled predecessor.
func (t *replayTask) appendInterval(iv Interval) {
	if t.act == nil || iv.To == iv.From {
		return
	}
	ivs := t.act.Intervals
	if n := len(ivs); n > 0 {
		last := &ivs[n-1]
		if last.To == iv.From && last.Comp == iv.Comp && last.Culprit == iv.Culprit &&
			last.Sem == iv.Sem && last.Inversion == iv.Inversion && last.Runner == iv.Runner {
			last.To = iv.To
			return
		}
	}
	t.act.Intervals = append(t.act.Intervals, iv)
}

// closeSpans closes the open attribution span of every waiting task at
// instant at, under the current context (who runs, who holds what).
// Running tasks are left alone: their span splits only at occupancy
// end, when the consumed overhead is known.
func (r *replay) closeSpans(at vtime.Time) {
	for _, name := range r.order {
		t := r.tasks[name]
		if t.act == nil || at == t.since {
			continue
		}
		switch t.state {
		case stReady:
			culprit := r.runningOn(t.cpu)
			if culprit == "" {
				culprit = "idle"
			}
			t.appendInterval(Interval{From: t.since, To: at, Comp: Preempted, Culprit: culprit})
			t.since = at
		case stBlocked:
			t.appendInterval(Interval{From: t.since, To: at, Comp: Blocked, Culprit: t.reason})
			t.since = at
		case stMigrating:
			t.appendInterval(Interval{From: t.since, To: at, Comp: Migration, Culprit: t.migTarget})
			t.since = at
		case stBlockedSem:
			chain := r.chain(t)
			culprit := t.holder
			if len(chain) > 0 {
				culprit = chain[0]
			}
			iv := Interval{
				From: t.since, To: at, Comp: Blocked,
				Culprit: culprit, Sem: t.waitSem, Chain: chain,
				Runner: r.runningOn(t.cpu),
			}
			if r.isInversion(t, chain) {
				iv.Inversion = true
				r.extendInversion(t, at)
			} else {
				r.endInversion(name, t.since)
			}
			t.appendInterval(iv)
			t.since = at
		}
	}
}

// chain resolves the blocking chain for a semaphore-blocked task: the
// direct holder, then the holder's holder while holders are themselves
// semaphore-blocked. Bounded to break ownership-tracking cycles.
func (r *replay) chain(t *replayTask) []string {
	var chain []string
	sem := t.waitSem
	holder := r.semOwn[sem]
	if holder == "" {
		holder = t.holder // fall back to the identity recorded at block time
	}
	seen := map[string]bool{t.info.Name: true}
	for holder != "" && !seen[holder] && len(chain) < 64 {
		chain = append(chain, holder)
		seen[holder] = true
		h, ok := r.tasks[holder]
		if !ok || h.state != stBlockedSem {
			break
		}
		holder = r.semOwn[h.waitSem]
		if holder == "" {
			holder = h.holder
		}
	}
	return chain
}

// isInversion reports whether the task running on t's CPU inverts t's
// wait: lower priority than the victim and not part of its blocking
// chain — CPU time no priority-inheritance bound accounts for.
func (r *replay) isInversion(t *replayTask, chain []string) bool {
	running := r.runningOn(t.cpu)
	if running == "" || running == t.info.Name || t.info.Prio < 0 {
		return false
	}
	run, ok := r.tasks[running]
	if !ok || run.info.Prio < 0 || run.info.Prio <= t.info.Prio {
		return false
	}
	for _, h := range chain {
		if h == running {
			return false
		}
	}
	return true
}

// extendInversion grows (or opens) the victim's inversion window up to
// instant at; windows with a different runner or semaphore are split.
func (r *replay) extendInversion(t *replayTask, at vtime.Time) {
	name := t.info.Name
	running := r.runningOn(t.cpu)
	if w := r.invOpen[name]; w != nil && w.To == t.since && w.Runner == running && w.Sem == t.waitSem {
		w.To = at
		return
	}
	r.endInversion(name, t.since)
	r.invOpen[name] = &Inversion{Task: name, Sem: t.waitSem, Runner: running, From: t.since, To: at}
}

// endInversion closes the victim's open inversion window, if any.
func (r *replay) endInversion(name string, _ vtime.Time) {
	w := r.invOpen[name]
	if w == nil {
		return
	}
	delete(r.invOpen, name)
	r.an.Inversions = append(r.an.Inversions, *w)
}

// parseTaskInfo parses "prio=P period=N deadline=N" (integer ns).
func parseTaskInfo(name, detail string) TaskInfo {
	ti := TaskInfo{Name: name, Prio: -1}
	for _, f := range strings.Fields(detail) {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue
		}
		switch key {
		case "prio":
			ti.Prio = int(n)
		case "period":
			ti.Period = vtime.Duration(n)
		case "deadline":
			ti.Deadline = vtime.Duration(n)
		}
	}
	return ti
}

// parseSemDetail splits "sem holder=name" (holder optional).
func parseSemDetail(detail string) (sem, holder string) {
	sem = detail
	if i := strings.Index(detail, " holder="); i >= 0 {
		sem = detail[:i]
		holder = detail[i+len(" holder="):]
	}
	return sem, holder
}
