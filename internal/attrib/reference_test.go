package attrib

import (
	"fmt"
	"sort"
	"strings"

	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

// This file holds the literal replay: at every closing event it walks
// all tasks through string-keyed maps and labels each waiting task's
// span afresh, and it builds each activation's []Interval as it goes.
// It is the reference the property tests in replay_test.go hold Analyze
// to: for every trace both must return equal analyses, and each
// activation's Intervals() must equal the intervals built here.

type refTask struct {
	info       TaskInfo
	state      taskState
	since      vtime.Time // last interval cut for non-running states
	runStart   vtime.Time // dispatch instant while running
	act        *refActivation
	actCount   int
	waitSem    string    // semaphore name while stBlockedSem
	holder     string    // holder recorded in the block event's detail
	reason     string    // blocking reason while stBlocked
	cpu        int       // CPU whose runner attributes this task's waits
	premigrate taskState // state to restore at migrate-done
	migTarget  string    // migrate detail ("to=cpuN") while in transit
}

// refActivation is a live activation with the intervals the reference
// builds for it.
type refActivation struct {
	Activation
	intervals []Interval
}

type refReplay struct {
	order     []string
	tasks     map[string]*refTask
	running   []string // per-CPU: task occupying the CPU, "" when idle
	semOwn    map[string]string
	an        *Analysis
	intervals [][]Interval          // per retired activation, in an.Activations order
	invOpen   map[string]*Inversion // victim → open inversion window
}

// runningOn reports the task occupying CPU c ("" when idle or the CPU
// never appeared in the trace).
func (r *refReplay) runningOn(c int) string {
	if c < 0 || c >= len(r.running) {
		return ""
	}
	return r.running[c]
}

// setRunning records CPU c's occupant, growing the per-CPU slate on
// first sight of a new CPU.
func (r *refReplay) setRunning(c int, task string) {
	for len(r.running) <= c {
		r.running = append(r.running, "")
	}
	r.running[c] = task
}

// analyzeReference is Analyze by the reference replay, which also
// returns each activation's intervals. Its per-CPU slate grows to the
// largest CPU id, so keep ids small in its input.
func analyzeReference(events []trace.Event, dropped uint64) (*Analysis, [][]Interval, error) {
	if dropped > 0 {
		return nil, nil, fmt.Errorf("%w (%d events dropped)", ErrTruncated, dropped)
	}
	r := &refReplay{
		tasks:   map[string]*refTask{},
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
			return nil, nil, fmt.Errorf("attrib: event %d (%v %s) goes backwards in time", i, e.Kind, e.Task)
		}
		if e.CPU < 0 {
			return nil, nil, fmt.Errorf("attrib: event %d (%v %s) names negative cpu %d", i, e.Kind, e.Task, e.CPU)
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
	return r.an, r.intervals, nil
}

func (r *refReplay) task(name string) *refTask {
	if t, ok := r.tasks[name]; ok {
		return t
	}
	t := &refTask{info: TaskInfo{Name: name, Prio: -1}}
	r.tasks[name] = t
	r.order = append(r.order, name)
	return t
}

// step applies one event: close the attribution spans that end at its
// timestamp under the *pre-event* context, then apply the transition.
func (r *refReplay) step(e trace.Event) {
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
		t.act = &refActivation{Activation: Activation{
			Task:       e.Task,
			Index:      t.actCount,
			ReleasedAt: e.At,
			Deadline:   e.At.Add(t.info.Deadline),
		}}
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
			// Blocked mid-transit, as a suspension in a trace from another
			// kernel can be: the transit span keeps accruing as
			// Migration; restore the blocked state at arrival instead.
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
func (r *refReplay) finish(t *refTask, end vtime.Time) {
	a := t.act
	t.act = nil
	a.EndAt = end
	a.Response = end.Sub(a.ReleasedAt)
	for _, iv := range a.intervals {
		a.Comp[iv.Comp] += iv.Dur()
	}
	r.endInversion(a.Task, end)
	r.an.Activations = append(r.an.Activations, a.Activation)
	r.intervals = append(r.intervals, a.intervals)
}

// endOccupancy books the span since dispatch as running plus a trailing
// overhead slice of the length the kernel attached to the ending event.
// The placement is canonical; the amounts are exact.
func (t *refTask) endOccupancy(at vtime.Time, overhead vtime.Duration) {
	split := at.Add(-overhead)
	t.appendInterval(Interval{From: t.runStart, To: split, Comp: Running})
	t.appendInterval(Interval{From: split, To: at, Comp: Overhead})
}

// appendInterval adds a non-empty interval to the live activation,
// coalescing with an identically-labeled predecessor.
func (t *refTask) appendInterval(iv Interval) {
	if t.act == nil || iv.To == iv.From {
		return
	}
	ivs := t.act.intervals
	if n := len(ivs); n > 0 {
		last := &ivs[n-1]
		if last.To == iv.From && last.Comp == iv.Comp && last.Culprit == iv.Culprit &&
			last.Sem == iv.Sem && last.Inversion == iv.Inversion && last.Runner == iv.Runner {
			last.To = iv.To
			return
		}
	}
	t.act.intervals = append(t.act.intervals, iv)
}

// closeSpans closes the open attribution span of every waiting task at
// instant at, under the current context (who runs, who holds what).
// Running tasks are left alone: their span splits only at occupancy
// end, when the consumed overhead is known.
func (r *refReplay) closeSpans(at vtime.Time) {
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
func (r *refReplay) chain(t *refTask) []string {
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
func (r *refReplay) isInversion(t *refTask, chain []string) bool {
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
func (r *refReplay) extendInversion(t *refTask, at vtime.Time) {
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
func (r *refReplay) endInversion(name string, _ vtime.Time) {
	w := r.invOpen[name]
	if w == nil {
		return
	}
	delete(r.invOpen, name)
	r.an.Inversions = append(r.an.Inversions, *w)
}
