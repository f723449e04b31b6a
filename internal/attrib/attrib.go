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
//     non-semaphore reason (delay, event, mailbox);
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
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"unsafe"

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
	// Aborted marks activations cut off by the end of the trace or, in
	// a trace from a kernel that kills faulting jobs, torn down by a
	// "job-killed" block; their partition is still exact over
	// [ReleasedAt, EndAt] but they never retired.
	Aborted  bool
	Response vtime.Duration
	Comp     [NumComponents]vtime.Duration

	spans  []span  // the labeled intervals in replay form, in the analysis's slab
	tables *tables // the analysis's names, which the spans index
}

// Intervals returns the activation's labeled intervals, in order: they
// tile [ReleasedAt, EndAt]. The analysis keeps them in a compact form
// without strings; each call expands them into a new slice, nil when
// there are none.
func (a *Activation) Intervals() []Interval {
	if len(a.spans) == 0 {
		return nil
	}
	t := a.tables
	ivs := make([]Interval, len(a.spans))
	for i := range a.spans {
		sp, iv := &a.spans[i], &ivs[i]
		iv.From, iv.To, iv.Comp, iv.Inversion = sp.from, sp.to, sp.comp, sp.inv
		iv.Culprit, iv.Runner, iv.Sem = t.labels[sp.culprit], t.labels[sp.runner], t.sems[sp.sem]
		if sp.chain >= 0 {
			iv.Chain = t.chains[sp.chain]
		}
	}
	return ivs
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
// running at release time — a guaranteed miss with no activation of
// its own to partition.
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

// --- replay state machine -------------------------------------------

type taskState uint8

const (
	stOff taskState = iota
	stReady
	stRunning
	stBlocked    // non-semaphore block (delay, event, mailbox)
	stBlockedSem // semaphore wait
	stMigrating  // in transit between CPUs (multicore traces)
)

// The replay labels every waiting span of a live activation with the
// context that holds at the end of the span: who runs on the task's CPU,
// who holds which semaphore. A span is cut only at a closing event (one
// of the kinds whose case in step starts with openCut), and spans that
// meet with equal labels merge. So a task's span needs cutting only when
// its label is about to change. The replay therefore keeps its state in
// dense per-task, per-semaphore and per-CPU slices and, before each
// change, cuts the spans of just the tasks whose label the change can
// alter:
//
//   - the event's own task;
//   - the ready and semaphore-blocked tasks of a CPU whose runner
//     changes;
//   - the semaphore-blocked tasks, when a blocking chain can change (an
//     owner changes, or a task enters or leaves a semaphore wait).
//
// A change made by an event that is not a closing one still relabels the
// span since the latest closing event, so the cut goes at that event's
// instant (cut). Open inversion windows are closed in the order the
// tasks first appeared, at each closing event, which keeps their order
// in the output the same as a replay that cuts every task at every
// closing event (reference_test.go keeps that replay as the reference).
//
// A live activation keeps its intervals as spans, in storage its task
// reuses from one activation to the next; retire copies them into the
// shared slab the retired activations keep, and Activation.Intervals
// expands them on demand from the analysis's final tables.

// span is an Interval in replay form. Its strings are label and
// semaphore indices, so spans compare without string compares and hold
// no pointers for the collector to scan: the slab of a whole trace's
// spans is memory the garbage collector never marks.
type span struct {
	from, to vtime.Time
	culprit  int32 // label
	runner   int32 // label
	sem      int32
	chain    int32 // index into replay.chains; -1 when none
	comp     Component
	inv      bool
}

type replayTask struct {
	info       TaskInfo
	idx        int32 // dense index
	rank       int32 // position in first-appearance order; -1 while only named as a holder or owner
	state      taskState
	since      vtime.Time // last interval cut for non-running states
	runStart   vtime.Time // dispatch instant while running
	live       bool       // act is an activation in flight
	act        Activation // the live activation; its intervals build up in spans
	spans      []span     // reused from one activation to the next
	actCount   int
	label      int32     // the task's name as a label
	waitSem    int32     // semaphore while stBlockedSem
	holder     int32     // holder recorded in the block event's detail; -1 when none
	reason     int32     // label: blocking reason while stBlocked
	cpu        int32     // CPU whose runner attributes this task's waits
	premigrate taskState // state to restore at migrate-done
	migTarget  int32     // label: migrate detail ("to=cpuN") while in transit
	win        Inversion // open inversion window, while winOpen
	winOpen    bool
}

// strtab interns strings to dense indices.
type strtab struct {
	ids  map[string]int32
	strs []string
}

func newStrtab(strs ...string) strtab {
	t := strtab{ids: make(map[string]int32, len(strs))}
	for _, s := range strs {
		t.id(s)
	}
	return t
}

func (t *strtab) id(s string) int32 {
	if i, ok := t.ids[s]; ok {
		return i
	}
	i := int32(len(t.strs))
	t.ids[s] = i
	t.strs = append(t.strs, s)
	return i
}

// bitset is a set of task ranks; walking it visits tasks in
// first-appearance order.
type bitset []uint64

func (b bitset) put(rank int32, on bool) {
	if on {
		b[rank>>6] |= 1 << (rank & 63)
	} else {
		b[rank>>6] &^= 1 << (rank & 63)
	}
}

type replay struct {
	ids    map[string]int32 // task name → dense index
	tasks  []*replayTask    // by dense index
	block  []replayTask     // storage of the latest tasks; never reallocated, so pointers stay valid
	byRank []int32          // dense index by rank

	sems   strtab  // semaphore names; "" is 0
	owner  []int32 // per semaphore: the holding task, -1 when free
	labels strtab  // culprit and runner strings; "" is 0, "idle" is 1

	cpuIDs   map[int]int32 // CPU id → dense index; CPU 0 is index 0
	running  []int32       // per dense CPU: the occupying task, -1 when idle
	closedAt []vtime.Time  // per dense CPU: the cut its waiters were last closed at

	live    bitset // tasks with an activation in flight
	waiting bitset // tasks in stReady or stBlockedSem: their label names a runner
	semWait bitset // tasks in stBlockedSem
	windows bitset // tasks with an open inversion window

	cut vtime.Time // instant of the latest closing event

	seen  []uint32 // per task: epoch of the chain walk that last visited it
	epoch uint32
	chain []int32 // scratch for chainOf

	slab     []span     // retired activations' spans
	slabSize int        // spans per slab chunk
	chains   [][]string // blocking chains of intervals, by span.chain
	names    []string   // storage of chains
	tables   *tables    // filled in when the replay ends

	an *Analysis
}

// tables holds the names the spans of an analysis's activations index:
// its culprit and runner labels, semaphores and blocking chains. Analyze
// fills it in once the replay has seen every name.
type tables struct {
	labels []string
	sems   []string
	chains [][]string
}

// slabChunk is the most spans a slab chunk holds: 32 kB.
const slabChunk = 32 << 10 / int(unsafe.Sizeof(span{}))

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
	var last vtime.Time
	releases, infos := 0, 0
	for i := range events {
		e := &events[i]
		if e.At < last {
			return nil, fmt.Errorf("attrib: event %d (%v %s) goes backwards in time", i, e.Kind, e.Task)
		}
		if e.CPU < 0 {
			return nil, fmt.Errorf("attrib: event %d (%v %s) names negative cpu %d", i, e.Kind, e.Task, e.CPU)
		}
		last = e.At
		switch e.Kind {
		case trace.Release:
			releases++
		case trace.TaskInfo:
			infos++
		}
	}
	// The kernel emits one task-info event per task, so infos sizes the
	// per-task state.
	r := &replay{
		ids:      make(map[string]int32, infos),
		tasks:    make([]*replayTask, 0, infos),
		block:    make([]replayTask, 0, infos),
		byRank:   make([]int32, 0, infos),
		seen:     make([]uint32, 0, infos),
		sems:     newStrtab(""),
		owner:    []int32{-1},
		labels:   newStrtab("", "idle"),
		cpuIDs:   map[int]int32{0: 0},
		running:  []int32{-1},
		closedAt: []vtime.Time{-1},
		slabSize: min(max(len(events)/4, 64), slabChunk),
		tables:   &tables{},
		an: &Analysis{
			Open:    map[string]int{},
			Dropped: dropped,
		},
	}
	if releases > 0 {
		// Every release opens one activation and every activation
		// retires exactly once.
		r.an.Activations = make([]Activation, 0, releases)
	}
	for i := range events {
		r.step(&events[i])
	}
	// Close activations still in flight at the last event time.
	r.cut = last
	r.closeWhere(r.live, nil, -1)
	for _, i := range r.byRank {
		t := r.tasks[i]
		if t.live {
			if t.state == stRunning {
				// No occupancy-end event: the span since dispatch cannot
				// be split into running/overhead; book it as running.
				t.appendSpan(span{from: t.runStart, to: last, comp: Running, chain: -1})
			}
			t.act.Aborted = true
			r.an.Open[t.info.Name]++
			r.finish(t, last)
		}
	}
	if len(r.byRank) > 0 {
		r.an.Tasks = make([]TaskInfo, 0, len(r.byRank))
	}
	for _, i := range r.byRank {
		r.an.Tasks = append(r.an.Tasks, r.tasks[i].info)
	}
	*r.tables = tables{labels: r.labels.strs, sems: r.sems.strs, chains: r.chains}
	sort.SliceStable(r.an.Inversions, func(i, j int) bool {
		return r.an.Inversions[i].From < r.an.Inversions[j].From
	})
	return r.an, nil
}

// intern returns the task named name, adding it on first sight without
// making it appear: holders and owners may be named before their task
// shows up.
func (r *replay) intern(name string) *replayTask {
	if i, ok := r.ids[name]; ok {
		return r.tasks[i]
	}
	if len(r.block) == cap(r.block) {
		r.block = make([]replayTask, 0, max(2*cap(r.block), 8))
	}
	r.block = append(r.block, replayTask{info: TaskInfo{Name: name, Prio: -1}, idx: int32(len(r.tasks)), rank: -1,
		holder: -1, label: r.labels.id(name)})
	t := &r.block[len(r.block)-1]
	r.ids[name] = t.idx
	r.tasks = append(r.tasks, t)
	r.seen = append(r.seen, 0)
	return t
}

// task returns the task named name, making it appear (in Analysis.Tasks
// order) on first sight.
func (r *replay) task(name string) *replayTask {
	t := r.intern(name)
	if t.rank < 0 {
		t.rank = int32(len(r.byRank))
		r.byRank = append(r.byRank, t.idx)
		if int(t.rank>>6) == len(r.live) {
			r.live = append(r.live, 0)
			r.waiting = append(r.waiting, 0)
			r.semWait = append(r.semWait, 0)
			r.windows = append(r.windows, 0)
		}
	}
	return t
}

// ref is the task named name as a runner, owner or holder: -1 for "",
// which a trace uses for "nobody".
func (r *replay) ref(name string) int32 {
	if name == "" {
		return -1
	}
	return r.intern(name).idx
}

// ref is t as a runner, owner or holder.
func (t *replayTask) ref() int32 {
	if t.info.Name == "" {
		return -1
	}
	return t.idx
}

// labelOf is task i's name as a label; "" for -1.
func (r *replay) labelOf(i int32) int32 {
	if i < 0 {
		return 0
	}
	return r.tasks[i].label
}

func (r *replay) sem(name string) int32 {
	s := r.sems.id(name)
	if int(s) == len(r.owner) {
		r.owner = append(r.owner, -1)
	}
	return s
}

func (r *replay) cpu(id int) int32 {
	c, ok := r.cpuIDs[id]
	if !ok {
		c = int32(len(r.running))
		r.cpuIDs[id] = c
		r.running = append(r.running, -1)
		r.closedAt = append(r.closedAt, -1)
	}
	return c
}

// setState moves t to state s, keeping the per-state sets current.
func (r *replay) setState(t *replayTask, s taskState) {
	t.state = s
	r.waiting.put(t.rank, s == stReady || s == stBlockedSem)
	r.semWait.put(t.rank, s == stBlockedSem)
}

func (r *replay) setLive(t *replayTask, on bool) {
	t.live = on
	r.live.put(t.rank, on)
}

// openCut starts a closing event at instant at: the spans its changes
// relabel end here, and open inversion windows close or extend here.
func (r *replay) openCut(at vtime.Time) {
	r.cut = at
	r.closeWhere(r.windows, nil, -1)
}

// closeCPU closes the spans the runner of CPU c labels: those of its
// ready and semaphore-blocked tasks. Once closed at a cut they stay
// closed until the next one, since a task that becomes one of them
// starts its span at the cut.
func (r *replay) closeCPU(c int32) {
	if r.closedAt[c] != r.cut {
		r.closedAt[c] = r.cut
		r.closeWhere(r.live, r.waiting, c)
	}
}

// closeSemWaiters closes the spans of the semaphore-blocked tasks, ahead
// of a change to a blocking chain.
func (r *replay) closeSemWaiters() { r.closeWhere(r.live, r.semWait, -1) }

// closeWhere closes, at the cut, the span of every live task in set (and
// in and, when non-nil; on CPU cpu, when not -1), in first-appearance
// order.
func (r *replay) closeWhere(set, and bitset, cpu int32) {
	for w, word := range set {
		if and != nil {
			word &= and[w]
		}
		for word != 0 {
			t := r.tasks[r.byRank[w<<6|bits.TrailingZeros64(word)]]
			word &= word - 1
			if cpu < 0 || t.cpu == cpu {
				r.close(t, r.cut)
			}
		}
	}
}

// step applies one event. A closing event first cuts, at its instant,
// the spans its transition relabels, under the *pre-event* context; the
// other events change the context of the spans since the latest cut.
func (r *replay) step(e *trace.Event) {
	switch e.Kind {
	case trace.TaskInfo:
		t := r.task(e.Task)
		r.close(t, r.cut)
		r.closeSemWaiters() // t's priority judges the inversions it causes
		t.info = parseTaskInfo(e.Task, e.Detail)
		t.cpu = r.cpu(e.CPU) // boot-time placement
		return
	case trace.Overrun:
		r.an.Overruns = append(r.an.Overruns, Overrun{Task: e.Task, At: e.At})
		return
	case trace.SemAcquire:
		r.setOwner(r.sem(e.Detail), r.ref(e.Task))
		return
	case trace.SemRelease:
		r.release(e.Detail, e.Task)
		return
	case trace.Fault:
		if sem, ok := strings.CutPrefix(e.Detail, "job ended holding "); ok {
			r.release(sem, e.Task)
		}
		return
	case trace.Idle:
		r.openCut(e.At)
		c := r.cpu(e.CPU)
		r.vacate(c, r.running[c])
		return
	case trace.Release, trace.Dispatch, trace.Preempt, trace.BlockEv, trace.SemBlockWait, trace.SemHintPI,
		trace.SemGrant, trace.UnblockEv, trace.Migrate, trace.MigrateDone, trace.Complete, trace.Miss:
	default:
		return
	}
	// A closing event about task t: cut t's span and, since t may leave
	// a semaphore wait, the waits whose chains run through t.
	r.openCut(e.At)
	t := r.task(e.Task)
	c, id := r.cpu(e.CPU), t.ref()
	r.close(t, e.At)
	if t.state == stBlockedSem {
		r.closeSemWaiters()
	}
	switch e.Kind {
	case trace.Release:
		if t.live {
			// The kernel loses overrun releases (no Release event) and
			// emits Overrun instead; a Release over a live activation
			// means the trace window started mid-activation. Close the
			// stale one as aborted.
			t.act.Aborted = true
			r.finish(t, e.At)
		}
		t.act = Activation{
			Task:       e.Task,
			Index:      t.actCount,
			ReleasedAt: e.At,
			Deadline:   e.At.Add(t.info.Deadline),
		}
		r.setLive(t, true)
		t.actCount++
		r.setState(t, stReady)
		t.since = e.At
	case trace.Dispatch:
		if r.running[c] != id {
			r.closeCPU(c)
			r.running[c] = id
		}
		// An activation released before the trace window still has its
		// CPU occupancy tracked, so other tasks' ready time attributes.
		t.cpu = c
		r.setState(t, stRunning)
		t.runStart = e.At
	case trace.Preempt:
		if t.state == stRunning {
			t.endOccupancy(e.At, e.Dur)
			r.setState(t, stReady)
			t.since = e.At
		}
		r.vacate(c, id)
	case trace.BlockEv:
		if t.state == stRunning {
			t.endOccupancy(e.At, e.Dur)
			r.vacate(c, id)
		}
		if e.Detail == "job-killed" {
			if t.live {
				t.act.Aborted = true
				r.finish(t, e.At)
			}
			r.setState(t, stOff)
			return
		}
		if t.state == stMigrating {
			// Blocked mid-transit, as a suspension in a trace from another
			// kernel can be: the transit span keeps accruing as
			// Migration; restore the blocked state at arrival instead.
			t.premigrate = stBlocked
			t.reason = r.labels.id(e.Detail)
			return
		}
		r.setState(t, stBlocked)
		t.reason = r.labels.id(e.Detail)
		t.since = e.At
	case trace.SemBlockWait, trace.SemHintPI:
		sem, holder := parseSemDetail(e.Detail)
		s, h := r.sem(sem), r.ref(holder)
		if t.state == stRunning {
			t.endOccupancy(e.At, e.Dur)
			r.vacate(c, id)
		}
		if t.state == stMigrating {
			t.premigrate = stBlockedSem
			t.waitSem, t.holder = s, h
			return
		}
		r.closeSemWaiters() // t's chain joins theirs
		r.setState(t, stBlockedSem)
		t.waitSem, t.holder = s, h
		t.since = e.At
	case trace.SemGrant:
		r.setOwner(r.sem(e.Detail), id)
		if t.state == stBlockedSem || t.state == stBlocked {
			r.setState(t, stReady)
			t.waitSem, t.holder = 0, -1
			t.since = e.At
		}
	case trace.UnblockEv:
		if t.state == stMigrating {
			// A wakeup landing mid-transit: the task becomes ready on
			// arrival, but the transit span stays Migration.
			t.premigrate = stReady
			return
		}
		if t.state == stBlocked || t.state == stBlockedSem {
			r.setState(t, stReady)
			t.waitSem, t.holder = 0, -1
			t.since = e.At
		}
	case trace.Migrate:
		if t.state == stRunning {
			t.endOccupancy(e.At, e.Dur)
			r.vacate(c, id)
			t.premigrate = stReady
		} else {
			t.premigrate = t.state
		}
		r.setState(t, stMigrating)
		t.migTarget = r.labels.id(e.Detail)
		t.since = e.At
	case trace.MigrateDone:
		t.cpu = c
		if t.state == stMigrating {
			s := t.premigrate
			if s == stOff || s == stRunning {
				s = stReady
			}
			if s == stBlockedSem {
				r.closeSemWaiters()
			}
			r.setState(t, s)
			t.migTarget = 0
			t.since = e.At
		}
	case trace.Complete, trace.Miss:
		if t.state == stRunning {
			t.endOccupancy(e.At, e.Dur)
		}
		r.vacate(c, id)
		if t.live {
			t.act.Missed = e.Kind == trace.Miss
			r.finish(t, e.At)
		}
		r.setState(t, stOff)
	}
}

// vacate idles CPU c if task id (-1: nobody) occupies it, closing first
// the spans its runner labels.
func (r *replay) vacate(c, id int32) {
	if id >= 0 && r.running[c] == id {
		r.closeCPU(c)
		r.running[c] = -1
	}
}

// setOwner records task id (-1: nobody) as the holder of semaphore s,
// closing first the spans of the chains that pass through s.
func (r *replay) setOwner(s, id int32) {
	if r.owner[s] != id {
		r.closeSemWaiters()
		r.owner[s] = id
	}
}

// release frees semaphore sem if the named task holds it.
func (r *replay) release(sem, task string) {
	s, id := r.sem(sem), r.ref(task)
	if r.owner[s] == id {
		r.setOwner(s, -1)
	}
}

// finish retires the task's live activation at instant end.
func (r *replay) finish(t *replayTask, end vtime.Time) {
	r.setLive(t, false)
	r.endInversion(t)
	r.an.Activations = append(r.an.Activations, t.act)
	a := &r.an.Activations[len(r.an.Activations)-1]
	a.EndAt = end
	a.Response = end.Sub(a.ReleasedAt)
	for i := range t.spans {
		sp := &t.spans[i]
		a.Comp[sp.comp] += sp.to.Sub(sp.from)
	}
	a.spans, a.tables = r.retire(t.spans), r.tables
	t.spans = t.spans[:0]
}

// retire copies a retiring activation's spans into the shared slab. The
// slab grows in chunks that are never reallocated, so earlier
// activations keep their slices.
func (r *replay) retire(spans []span) []span {
	if len(spans) == 0 {
		return nil
	}
	if cap(r.slab)-len(r.slab) < len(spans) {
		r.slab = make([]span, 0, max(r.slabSize, len(spans)))
	}
	n := len(r.slab)
	r.slab = append(r.slab, spans...)
	return r.slab[n:len(r.slab):len(r.slab)]
}

// addChain keeps a named copy of a non-empty blocking chain and returns
// its index; -1 for an empty chain.
func (r *replay) addChain(chain []int32) int32 {
	if len(chain) == 0 {
		return -1
	}
	if cap(r.names)-len(r.names) < len(chain) {
		r.names = make([]string, 0, max(2*cap(r.names), len(chain), 64))
	}
	n := len(r.names)
	for _, h := range chain {
		r.names = append(r.names, r.tasks[h].info.Name)
	}
	r.chains = append(r.chains, r.names[n:len(r.names):len(r.names)])
	return int32(len(r.chains) - 1)
}

// endOccupancy books the span since dispatch as running plus a trailing
// overhead slice of the length the kernel attached to the ending event.
// The placement is canonical; the amounts are exact.
func (t *replayTask) endOccupancy(at vtime.Time, overhead vtime.Duration) {
	split := at.Add(-overhead)
	t.appendSpan(span{from: t.runStart, to: split, comp: Running, chain: -1})
	t.appendSpan(span{from: split, to: at, comp: Overhead, chain: -1})
}

// appendSpan adds a non-empty span to the live activation, coalescing
// with an identically-labeled predecessor.
func (t *replayTask) appendSpan(sp span) {
	if t.live && sp.to != sp.from && !t.extend(&sp) {
		t.push(&sp)
	}
}

// push adds sp to the live activation's spans.
func (t *replayTask) push(sp *span) {
	if cap(t.spans) == 0 {
		t.spans = make([]span, 0, 16)
	}
	t.spans = append(t.spans, *sp)
}

// extend lengthens the last span to cover sp if they meet and carry the
// same label; the last span keeps its blocking chain.
func (t *replayTask) extend(sp *span) bool {
	n := len(t.spans)
	if n == 0 {
		return false
	}
	last := &t.spans[n-1]
	if last.to == sp.from && last.comp == sp.comp && last.culprit == sp.culprit &&
		last.sem == sp.sem && last.inv == sp.inv && last.runner == sp.runner {
		last.to = sp.to
		return true
	}
	return false
}

// close closes t's open attribution span at instant at, under the
// current context (who runs, who holds what). A running task is left
// alone: its span splits only at occupancy end, when the consumed
// overhead is known.
func (r *replay) close(t *replayTask, at vtime.Time) {
	if !t.live || at == t.since {
		return
	}
	switch t.state {
	case stReady:
		culprit := int32(1) // "idle"
		if run := r.running[t.cpu]; run >= 0 {
			culprit = r.tasks[run].label
		}
		t.appendSpan(span{from: t.since, to: at, comp: Preempted, culprit: culprit, chain: -1})
	case stBlocked:
		t.appendSpan(span{from: t.since, to: at, comp: Blocked, culprit: t.reason, chain: -1})
	case stMigrating:
		t.appendSpan(span{from: t.since, to: at, comp: Migration, culprit: t.migTarget, chain: -1})
	case stBlockedSem:
		chain := r.chainOf(t)
		culprit := t.holder
		if len(chain) > 0 {
			culprit = chain[0]
		}
		run := r.running[t.cpu]
		sp := span{from: t.since, to: at, comp: Blocked, culprit: r.labelOf(culprit), sem: t.waitSem,
			runner: r.labelOf(run)}
		if r.isInversion(t, run, chain) {
			sp.inv = true
			r.extendInversion(t, at, r.tasks[run].info.Name, r.sems.strs[t.waitSem])
		} else {
			r.endInversion(t)
		}
		if !t.extend(&sp) {
			sp.chain = r.addChain(chain)
			t.push(&sp)
		}
	default:
		return
	}
	t.since = at
}

// chainOf resolves the blocking chain for a semaphore-blocked task: the
// direct holder, then the holder's holder while holders are themselves
// semaphore-blocked. Bounded to break ownership-tracking cycles. The
// result is scratch space, valid until the next call.
func (r *replay) chainOf(t *replayTask) []int32 {
	chain := r.chain[:0]
	holder := r.owner[t.waitSem]
	if holder < 0 {
		holder = t.holder // fall back to the identity recorded at block time
	}
	r.epoch++
	r.seen[t.idx] = r.epoch
	for holder >= 0 && r.seen[holder] != r.epoch && len(chain) < 64 {
		chain = append(chain, holder)
		r.seen[holder] = r.epoch
		h := r.tasks[holder]
		if h.state != stBlockedSem {
			break
		}
		holder = r.owner[h.waitSem]
		if holder < 0 {
			holder = h.holder
		}
	}
	r.chain = chain
	return chain
}

// isInversion reports whether run, the task on t's CPU, inverts t's
// wait: lower priority than the victim and not part of its blocking
// chain — CPU time no priority-inheritance bound accounts for.
func (r *replay) isInversion(t *replayTask, run int32, chain []int32) bool {
	if run < 0 || run == t.idx || t.info.Prio < 0 {
		return false
	}
	if p := r.tasks[run].info.Prio; p < 0 || p <= t.info.Prio {
		return false
	}
	for _, h := range chain {
		if h == run {
			return false
		}
	}
	return true
}

// extendInversion grows (or opens) the victim's inversion window up to
// instant at; windows with a different runner or semaphore are split.
func (r *replay) extendInversion(t *replayTask, at vtime.Time, runner, sem string) {
	if w := &t.win; t.winOpen && w.To == t.since && w.Runner == runner && w.Sem == sem {
		w.To = at
		return
	}
	r.endInversion(t)
	t.win = Inversion{Task: t.info.Name, Sem: sem, Runner: runner, From: t.since, To: at}
	t.winOpen = true
	r.windows.put(t.rank, true)
}

// endInversion closes the victim's open inversion window, if any.
func (r *replay) endInversion(t *replayTask) {
	if !t.winOpen {
		return
	}
	t.winOpen = false
	r.windows.put(t.rank, false)
	r.an.Inversions = append(r.an.Inversions, t.win)
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
