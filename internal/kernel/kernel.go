// Package kernel implements the EMERALDS microkernel executive on top
// of the discrete-event simulator: threads executing task programs in
// virtual time, preemptive scheduling through a pluggable policy
// (package sched), the §6 semaphore implementation in both standard and
// optimized forms, condition variables, events, mailbox, virtual-link
// and state-message IPC, task delays, interrupt entry points, and
// kernel support for user-level device drivers: the services of
// Figure 1 less memory-protected processes, which nothing used
// (DESIGN.md §6).
//
// Every kernel operation charges calibrated virtual time from the cost
// model, so the overheads the paper measures on its 68040 target are
// reproduced structurally: the same queue scans happen, and they cost
// the same published per-element amounts.
package kernel

import (
	"errors"
	"fmt"

	"emeralds/internal/costmodel"
	"emeralds/internal/ipc"
	"emeralds/internal/ksync"
	"emeralds/internal/mem"
	"emeralds/internal/metrics"
	"emeralds/internal/sched"
	"emeralds/internal/sim"
	"emeralds/internal/stats"
	"emeralds/internal/task"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

// LockRegime models the granularity of kernel locking as a simulated
// cost policy: every locked kernel operation extends its lock domain's
// busy window, and an operation from another CPU that lands inside the
// window spins for the remainder — charged as lock contention. The
// regimes differ only in how operations map to domains.
type LockRegime uint8

const (
	// LockPerCPU: run-queue operations are lock-free (each CPU owns its
	// queue); only shared kernel objects (semaphores, mailboxes) take a
	// lock. The EMERALDS-native fine-grained end point.
	LockPerCPU LockRegime = iota
	// LockPerQueue: one spinlock per run queue plus one per kernel
	// object.
	LockPerQueue
	// LockBig: a single big kernel lock serializes every kernel
	// operation, the coarse-grained end point.
	LockBig
)

func (r LockRegime) String() string {
	switch r {
	case LockPerCPU:
		return "percpu"
	case LockPerQueue:
		return "perqueue"
	case LockBig:
		return "biglock"
	default:
		return fmt.Sprintf("lockregime(%d)", uint8(r))
	}
}

// ParseLockRegime inverts LockRegime.String.
func ParseLockRegime(s string) (LockRegime, error) {
	switch s {
	case "percpu":
		return LockPerCPU, nil
	case "perqueue":
		return LockPerQueue, nil
	case "biglock":
		return LockBig, nil
	default:
		return 0, fmt.Errorf("kernel: unknown lock regime %q (want percpu, perqueue or biglock)", s)
	}
}

// Thread is a kernel thread: a TCB plus the kernel-private state the
// semaphore and IPC layers need.
type Thread struct {
	TCB *task.TCB

	holder     ksync.Holder
	waitingSem *semaphore       // semaphore this thread is queued on, if any
	preAcq     *semaphore       // §6.3.1 pre-acquire queue membership
	reacquire  *semaphore       // mutex to re-take after a condvar wait
	msgVal     int64            // last received mailbox/state value
	respHist   *stats.Histogram // lazily allocated under sim.Config.RecordResponses; non-nil once a sample lands
	blockHist  *stats.Histogram // semaphore blocking times; same lifecycle as respHist
	semBlockAt vtime.Time       // instant the thread last blocked on a semaphore
	jobActive  bool
	migrating  bool                // in transit between CPUs (in no scheduler's queues)
	migrateTo  int                 // deferred migration target; -1 when none
	beforeJob  func() task.Program // rebuilds the job body at release (polling server)
	releaseLbl string
	segLbl     string        // precomputed segment label ("seg:" + name)
	forLbl     string        // precomputed detail of a preemption in its favour ("for " + name)
	relTgt     releaseTarget // zero-alloc timer target for periodic releases
	nextRel    vtime.Time
	aperiodic  bool
}

// releaseTarget is the sim.Target for a thread's periodic release
// timer: embedded in the Thread so arming a release allocates nothing.
type releaseTarget struct {
	k  *Kernel
	th *Thread
}

// Fire is the timer interrupt: pin the owning CPU and release the job.
func (rt *releaseTarget) Fire(*sim.Event) {
	k, th := rt.k, rt.th
	k.exec = k.cpus[th.TCB.CPU]
	k.onRelease(th)
}

// Name returns the thread's task name.
func (t *Thread) Name() string { return t.TCB.Name }

// LastMsg returns the value delivered by the thread's most recent
// mailbox receive or state-message read.
func (t *Thread) LastMsg() int64 { return t.msgVal }

// Deliver hands the thread a value as if read from a device register;
// device drivers use it to return input data to the calling thread.
func (t *Thread) Deliver(val int64) { t.msgVal = val }

// Responses returns the thread's latency histogram (nil unless
// sim.Config.RecordResponses was set).
func (t *Thread) Responses() *stats.Histogram { return t.respHist }

// Blocking returns the thread's semaphore blocking-time histogram —
// contended acquire (or hint-PI park, or condvar-to-mutex move) to
// grant — nil unless sim.Config.RecordResponses was set.
func (t *Thread) Blocking() *stats.Histogram { return t.blockHist }

// Stats bundles kernel-wide accounting.
type Stats struct {
	ContextSwitches uint64
	Preemptions     uint64
	SavedSwitches   uint64 // context switches eliminated by the §6.2 scheme
	HintPIs         uint64 // early priority inheritances at event E
	Releases        uint64
	Completions     uint64
	Misses          uint64
	Overruns        uint64
	Faults          uint64
	SemAcquires     uint64
	SemContended    uint64
	MsgsSent        uint64
	MsgsDropped     uint64
	StateWrites     uint64
	StateReads      uint64
	Interrupts      uint64

	// Virtual-link counters; always zero without vlinks and omitted
	// from serialized artifacts so existing ones stay byte-identical.
	VLinkMsgs    uint64 `json:",omitempty"` // messages accepted onto links
	VLinkDropped uint64 `json:",omitempty"` // drop-mode refusals

	SchedCharge   vtime.Duration // t_b + t_u + t_s charges
	SwitchCharge  vtime.Duration // context-switch charges
	SemCharge     vtime.Duration // semaphore path charges (incl. PI)
	IPCCharge     vtime.Duration // mailbox/state-message charges
	TimerCharge   vtime.Duration // timer and interrupt entry charges
	SyscallCharge vtime.Duration
	UsefulCompute vtime.Duration

	// Multicore charges; always zero on single-CPU runs and therefore
	// omitted from their serialized form, keeping existing artifacts
	// byte-identical.
	MigrationCharge vtime.Duration `json:",omitempty"` // cross-CPU task moves
	IPICharge       vtime.Duration `json:",omitempty"` // inter-processor interrupts
	LockCharge      vtime.Duration `json:",omitempty"` // kernel-lock spin + contention waits
}

// TotalOverhead sums every non-compute charge.
func (s Stats) TotalOverhead() vtime.Duration {
	return s.SchedCharge + s.SwitchCharge + s.SemCharge + s.IPCCharge + s.TimerCharge + s.SyscallCharge +
		s.MigrationCharge + s.IPICharge + s.LockCharge
}

// cpu is one processor's execution state: its scheduler instance, the
// thread and segment it is executing, and the per-CPU accumulators that
// were kernel-global before the multicore refactor. The single-CPU
// kernel is exactly the M=1 special case: one cpu, no locks, no IPIs.
type cpu struct {
	id             int
	sch            sched.Scheduler
	current        *Thread
	seg            *segment
	idleDebt       vtime.Duration
	ovAcc          vtime.Duration // overhead consumed since the current occupancy's dispatch
	reschedPending bool           // reschedule deferred past a non-preemptible segment
	needResched    bool           // cross-CPU wakeup pending; served by an IPI
	met            *metrics.Set   // this CPU's counter shard
	segStore       segment        // reusable storage for seg (one in flight per CPU)

	// Busy-time accounting for the telemetry sampler: busyAcc is the
	// wall span this CPU spent non-idle (current != nil) over closed
	// occupancies, busyAt the instant the open one started. Updated only
	// at dispatch/idle transitions, so the cost is per context switch,
	// not per event.
	busyAcc vtime.Duration
	busyAt  vtime.Time
}

// noteIdle closes the CPU's open busy span at instant now. Callers flip
// current to nil right after.
func (c *cpu) noteIdle(now vtime.Time) {
	if c.current != nil {
		c.busyAcc += now.Sub(c.busyAt)
	}
}

// noteBusy opens a busy span at instant now if the CPU was idle.
func (c *cpu) noteBusy(now vtime.Time) {
	if c.current == nil {
		c.busyAt = now
	}
}

// lockDomain is the busy window of one simulated kernel lock.
type lockDomain struct {
	owner     int // CPU that last took the lock
	busyUntil vtime.Time
}

// Kernel is one EMERALDS node.
type Kernel struct {
	name     string
	eng      *sim.Engine
	prof     *costmodel.Profile
	record   bool // per-task response histograms
	optHints bool // §6.2 hint-based context-switch elimination
	optPI    bool // §6.2 O(1) place-holder priority inheritance
	dm       bool // deadline-monotonic fixed priorities
	tr       *trace.Log

	// Multicore execution state. cpus always has at least one entry;
	// exec is the CPU whose event is currently being handled (every
	// engine callback pins it on entry) and is cpus[0] otherwise.
	cpus     []*cpu
	exec     *cpu
	lockReg  LockRegime
	lockDoms map[int]*lockDomain
	draining bool // reschedule is draining cross-CPU marks (re-entrancy guard)

	threads []*Thread
	// Slab storage behind threads: AddTask carves Thread and TCB
	// values out of these (replaced, never grown, so pointers stay
	// valid). One heap object per threadSlabSize tasks instead of two
	// per task.
	thSlab  []Thread
	tcbSlab []task.TCB
	booted  bool

	sems   []*semaphore
	events []*kevent
	cvs    []*condvar
	mboxes []*link
	vlinks []*link
	states []*ipc.StateMessage
	devs   []Device
	ports  []BusPort

	ram    *mem.RAM
	ramErr error
	stats  Stats // charge durations only; Stats derives the counts
	met    *metrics.Set

	// OnJobComplete, when set before Boot, is invoked at the instant a
	// job's last op finishes, before any teardown charges — the
	// measurement hook the §6.4 experiment harness uses to close its
	// overhead window exactly at the end of the critical section.
	OnJobComplete func(*Thread)
}

// Device is a user-level device driver (§3: "kernel support for
// user-level device drivers"): the kernel charges IOCost of CPU time
// for the driver call and then lets the driver act in the calling
// thread's context.
type Device interface {
	Name() string
	IOCost() vtime.Duration
	Handle(k *Kernel, th *Thread)
}

// BusPort is a network interface attached to a fieldbus; OpBusSend ops
// enqueue frames on it. Implementations live in package fieldbus.
type BusPort interface {
	Name() string
	Send(val int64, size int)
}

// newKernel assembles the kernel of a node from its config; NewNode
// documents the defaults and the panics. Scheduler instances are bound
// later, at Node.Boot.
func newKernel(cfg sim.Config) *Kernel {
	prof := cfg.Profile
	if prof == nil {
		prof = costmodel.M68040()
	}
	var regime LockRegime
	if cfg.Lock != "" {
		var err error
		if regime, err = ParseLockRegime(cfg.Lock); err != nil {
			panic(err)
		}
	}
	var tr *trace.Log
	if cfg.TraceCapacity > 0 {
		tr = trace.New(cfg.TraceCapacity)
	}
	eng := cfg.Engine
	if eng == nil {
		eng = sim.New()
	}
	name := cfg.Name
	if name == "" {
		name = "node0"
	}
	m := cfg.CPUs
	if m < 1 {
		m = 1
	}
	k := &Kernel{
		name:     name,
		eng:      eng,
		prof:     prof,
		optHints: !cfg.StandardSem && !cfg.DisableHints,
		optPI:    !cfg.StandardSem && !cfg.DisablePlaceholder,
		dm:       cfg.DeadlineMonotonic,
		record:   cfg.RecordResponses,
		tr:       tr,
		lockReg:  regime,
		ram:      mem.NewRAM(cfg.RAMBudget),
	}
	k.cpus = make([]*cpu, m)
	for i := range k.cpus {
		k.cpus[i] = &cpu{id: i, met: &metrics.Set{}}
	}
	k.exec = k.cpus[0]
	// Shard 0 doubles as the global shard: kernel objects created
	// before Boot (mailboxes, state messages) bind their Observe
	// counters here.
	k.met = k.cpus[0].met
	return k
}

// Engine returns the underlying discrete-event engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Now reports the current virtual time.
func (k *Kernel) Now() vtime.Time { return k.eng.Now() }

// Name reports the node name.
func (k *Kernel) Name() string { return k.name }

// Profile returns the cost model in effect.
func (k *Kernel) Profile() *costmodel.Profile { return k.prof }

// Scheduler returns the scheduling policy in effect (CPU 0's instance
// on a multicore kernel).
func (k *Kernel) Scheduler() sched.Scheduler { return k.cpus[0].sch }

// NumCPUs reports the number of processors.
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// LockRegimeInEffect reports the simulated lock granularity.
func (k *Kernel) LockRegimeInEffect() LockRegime { return k.lockReg }

// Stats returns a snapshot of kernel-wide accounting. The event counts
// are summed from the per-CPU metric shards, their only store; the
// charge durations are the kernel's own. Allocation-free: the telemetry
// sampler calls it once per tick.
func (k *Kernel) Stats() Stats {
	var m metrics.Set
	for _, c := range k.cpus {
		m.Merge(c.met)
	}
	st := k.stats
	st.ContextSwitches = m.Get(metrics.Dispatches)
	st.Preemptions = m.Get(metrics.Preemptions)
	st.SavedSwitches = m.Get(metrics.SavedSwitches)
	st.HintPIs = m.Get(metrics.HintPIs)
	st.Releases = m.Get(metrics.Releases)
	st.Completions = m.Get(metrics.Completions)
	st.Misses = m.Get(metrics.DeadlineMisses)
	st.Overruns = m.Get(metrics.Overruns)
	st.Faults = m.Get(metrics.Faults)
	st.SemAcquires = m.Get(metrics.SemAcquires)
	st.SemContended = m.Get(metrics.SemBlocks)
	st.MsgsSent = m.Get(metrics.MailboxSends)
	st.MsgsDropped = m.Get(metrics.MailboxDrops)
	st.StateWrites = m.Get(metrics.StateWrites)
	st.StateReads = m.Get(metrics.StateReads)
	st.Interrupts = m.Get(metrics.Interrupts)
	st.VLinkMsgs = m.Get(metrics.VLinkSends)
	st.VLinkDropped = m.Get(metrics.VLinkDrops)
	return st
}

// Metrics returns a snapshot of the kernel's counters: the per-CPU
// shards merged in shard order. Shard 0 also holds the global counters
// (IPC objects bind there before Boot).
func (k *Kernel) Metrics() *metrics.Set {
	m := &metrics.Set{}
	for _, c := range k.cpus {
		m.Merge(c.met)
	}
	return m
}

// MetricsOn returns CPU c's live counter shard.
func (k *Kernel) MetricsOn(c int) *metrics.Set { return k.cpus[c].met }

// Diagnostics builds the observability block for artifacts: the full
// counter snapshot plus per-task response/blocking summaries (present
// only with sim.Config.RecordResponses, and only for tasks that recorded
// at least one sample). Tasks appear in creation order, so the block is
// deterministic. The counters are Metrics' merged snapshot.
func (k *Kernel) Diagnostics() *metrics.Diagnostics {
	d := &metrics.Diagnostics{Counters: k.Metrics().Snapshot(), TraceDropped: k.tr.Dropped()}
	for _, th := range k.threads {
		if th.respHist != nil && th.respHist.Count() > 0 {
			d.Tasks = append(d.Tasks, metrics.Summarize(th.TCB.Name, "response", th.respHist))
		}
		if th.blockHist != nil && th.blockHist.Count() > 0 {
			d.Tasks = append(d.Tasks, metrics.Summarize(th.TCB.Name, "blocking", th.blockHist))
		}
	}
	return d
}

// Trace returns the trace log (nil if tracing is off).
func (k *Kernel) Trace() *trace.Log { return k.tr }

// RAM returns the dynamic-memory accountant.
func (k *Kernel) RAM() *mem.RAM { return k.ram }

// chargeRAM records an allocation; the first budget violation is
// latched and surfaced by Boot.
func (k *Kernel) chargeRAM(kind string, bytes int) {
	if err := k.ram.Charge(kind, bytes); err != nil && k.ramErr == nil {
		k.ramErr = err
	}
}

// Threads returns all threads on the node.
func (k *Kernel) Threads() []*Thread { return k.threads }

// thOf returns the thread owning t. TCB ids are creation indices into
// k.threads, so the lookup is a slice index — this sits on the dispatch
// hot path, where the map it replaced was measurable.
func (k *Kernel) thOf(t *task.TCB) *Thread { return k.threads[t.ID] }

// ensureHists allocates th's histogram pair (one allocation for both)
// on the first recorded sample. Callers must have checked k.record.
func (k *Kernel) ensureHists(th *Thread) {
	if th.respHist == nil {
		hp := new([2]stats.Histogram)
		th.respHist = &hp[0]
		th.blockHist = &hp[1]
	}
}

// CurrentOn returns the thread running on CPU c (nil when idle).
func (k *Kernel) CurrentOn(c int) *Thread { return k.cpus[c].current }

// BusyOn reports the cumulative wall span CPU c has spent non-idle
// (some thread current), including the open span of a thread running
// right now. It is exact: spans are closed at every dispatch/idle
// transition. The telemetry sampler diffs it per tick for utilization.
func (k *Kernel) BusyOn(c int) vtime.Duration {
	cp := k.cpus[c]
	if cp.current != nil {
		return cp.busyAcc + k.eng.Now().Sub(cp.busyAt)
	}
	return cp.busyAcc
}

// ReadyCountOn reports CPU c's run-queue depth: admitted threads in the
// Ready state owned by that CPU, excluding the one currently running
// and any task in migration transit. O(threads); the telemetry sampler
// calls it once per tick, never from a kernel hot path.
func (k *Kernel) ReadyCountOn(c int) int {
	n := 0
	for _, th := range k.threads {
		if th.TCB.CPU == c && th.TCB.State == task.Ready && !th.migrating && th != k.cpus[c].current {
			n++
		}
	}
	return n
}

// threadSlabSize is the Thread/TCB slab granularity in AddTask.
const threadSlabSize = 16

// AddTask creates a periodic (or, with Period 0, aperiodic) thread.
func (k *Kernel) AddTask(spec task.Spec) *Thread {
	if k.booted {
		panic("kernel: AddTask after Boot")
	}
	if spec.Prog == nil && spec.WCET > 0 {
		spec.Prog = task.Program{task.Compute(spec.WCET)}
	}
	// Thread and TCB storage comes from slabs (one allocation per 16
	// tasks each): task construction dominates the allocation profile
	// of sweeps, which build kernels by the hundred thousand. Pointers
	// into a slab stay valid because a full slab is replaced, never
	// grown in place.
	if len(k.thSlab) == cap(k.thSlab) {
		k.thSlab = make([]Thread, 0, threadSlabSize)
		k.tcbSlab = make([]task.TCB, 0, threadSlabSize)
	}
	k.thSlab = k.thSlab[:len(k.thSlab)+1]
	th := &k.thSlab[len(k.thSlab)-1]
	k.tcbSlab = k.tcbSlab[:len(k.tcbSlab)+1]
	tcb := &k.tcbSlab[len(k.tcbSlab)-1]
	task.NewIn(tcb, len(k.threads), spec)
	tcb.State = task.Blocked
	// Both event labels and the preemption detail in one allocation.
	rel, seg := len("release:")+len(tcb.Name), len("seg:")+len(tcb.Name)
	joint := "release:" + tcb.Name + "seg:" + tcb.Name + "for " + tcb.Name
	th.TCB = tcb
	th.releaseLbl = joint[:rel]
	th.segLbl = joint[rel : rel+seg]
	th.forLbl = joint[rel+seg:]
	th.aperiodic = spec.Period == 0
	th.migrateTo = -1
	th.relTgt = releaseTarget{k: k, th: th}
	if k.record {
		// The simulated kernel reserves the bucket arrays up front
		// (deterministic RAM accounting); the host-side storage is
		// allocated on first sample (ensureHists) — most tasks in big
		// sweeps never record one.
		k.chargeRAM("histogram", 2*8*181) // two fixed bucket arrays
	}
	k.chargeRAM("tcb", mem.RAMPerTCB)
	k.chargeRAM("stack", mem.RAMPerStack)
	k.threads = append(k.threads, th)
	return th
}

// errBooted refuses a second boot.
var errBooted = errors.New("kernel: already booted")

// boot binds ss[i] to CPU i, admits perCPU[i] — the placement Node.Boot
// computed with sched.AssignCPUs, which also stamped each TCB's CPU —
// to it with per-CPU priority ranks (RM, or DM under
// Config.DeadlineMonotonic), and schedules the first periodic releases.
// For a CSD scheduler the queue partition it carries (chosen by
// Node.Boot) is applied to its CPU's RM-sorted TCBs. The single-CPU
// kernel is the M = 1 case: one scheduler admitting every task.
func (k *Kernel) boot(ss []sched.Scheduler, perCPU [][]*task.TCB) error {
	if k.booted {
		return errBooted
	}
	for i, c := range k.cpus {
		if i >= len(ss) || ss[i] == nil {
			return fmt.Errorf("kernel: no scheduler bound on cpu%d", c.id)
		}
		c.sch = ss[i]
	}
	if k.ramErr != nil {
		return k.ramErr
	}
	k.booted = true
	for i, c := range k.cpus {
		var sorted []*task.TCB
		if k.dm {
			sorted = sched.AssignDMPriorities(perCPU[i])
		} else {
			sorted = sched.AssignRMPriorities(perCPU[i])
		}
		if csd, ok := c.sch.(*sched.CSD); ok {
			csd.SetMetrics(c.met)
			if err := csd.Partition().Apply(sorted); err != nil {
				return fmt.Errorf("cpu%d: %w", i, err)
			}
		}
		c.sch.Admit(sorted)
	}
	// Announce every task's static parameters up front so a trace is
	// self-describing: the attribution engine (package attrib) needs
	// priorities for inversion detection and deadlines for miss
	// analysis without access to the Spec structs. The event's CPU
	// field records the boot-time placement.
	if k.tr != nil {
		// Skipped entirely without a trace: the Sprintf per task is
		// measurable on construction-heavy benchmarks.
		for _, th := range k.threads {
			k.tr.AddCPU(k.eng.Now(), trace.TaskInfo, th.TCB.Name,
				fmt.Sprintf("prio=%d period=%d deadline=%d",
					th.TCB.BasePrio, int64(th.TCB.Spec.Period), int64(th.TCB.Spec.RelDeadline())),
				th.TCB.CPU)
		}
	}
	for _, th := range k.threads {
		if !th.aperiodic {
			th.nextRel = vtime.Time(0).Add(th.TCB.Spec.Phase)
			k.scheduleRelease(th)
		}
	}
	return nil
}

func (k *Kernel) scheduleRelease(th *Thread) {
	k.eng.Schedule(th.nextRel, sim.ClassDefault, th.releaseLbl, &th.relTgt)
}

// Run advances the simulation by d of virtual time.
func (k *Kernel) Run(d vtime.Duration) {
	k.eng.RunUntil(k.eng.Now().Add(d))
}

// RunUntil advances the simulation to instant t.
func (k *Kernel) RunUntil(t vtime.Time) { k.eng.RunUntil(t) }
